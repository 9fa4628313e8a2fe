package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotSymmetric(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		return almostEq(Dot(a[:], b[:]), Dot(b[:], a[:]), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// The unrolled kernels must agree with their naive definitions on every
// length (exercising all remainder paths) — within reassociation
// tolerance for the reductions, exactly for the elementwise ops.
func TestUnrolledKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 19; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var dot, n2, n2d float64
		for i := range a {
			dot += a[i] * b[i]
			n2 += a[i] * a[i]
			d := a[i] - b[i]
			n2d += d * d
		}
		if !almostEq(Dot(a, b), dot, 1e-12) {
			t.Fatalf("n=%d: Dot = %v, want %v", n, Dot(a, b), dot)
		}
		if !almostEq(Norm2Sq(a), n2, 1e-12) {
			t.Fatalf("n=%d: Norm2Sq = %v, want %v", n, Norm2Sq(a), n2)
		}
		if !almostEq(Norm2SqDiff(a, b), n2d, 1e-12) {
			t.Fatalf("n=%d: Norm2SqDiff = %v, want %v", n, Norm2SqDiff(a, b), n2d)
		}

		alpha := 1.5
		dst := append([]float64(nil), a...)
		AddScaled(dst, b, alpha)
		for i := range dst {
			if dst[i] != a[i]+alpha*b[i] {
				t.Fatalf("n=%d: AddScaled[%d] = %v", n, i, dst[i])
			}
		}
		mul := make([]float64, n)
		MulInto(mul, b, alpha)
		for i := range mul {
			if mul[i] != alpha*b[i] {
				t.Fatalf("n=%d: MulInto[%d] = %v", n, i, mul[i])
			}
		}
		add := append([]float64(nil), a...)
		Add(add, b)
		for i := range add {
			if add[i] != a[i]+b[i] {
				t.Fatalf("n=%d: Add[%d] = %v", n, i, add[i])
			}
		}
	}
}

func TestSuffixSumRows(t *testing.T) {
	// 4 rows of stride 3: row i must become the sum of rows i..3.
	data := []float64{
		1, 2, 3,
		10, 20, 30,
		100, 200, 300,
		1000, 2000, 3000,
	}
	SuffixSumRows(data, 4, 3)
	want := []float64{
		1111, 2222, 3333,
		1110, 2220, 3330,
		1100, 2200, 3300,
		1000, 2000, 3000,
	}
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("SuffixSumRows[%d] = %v, want %v", i, data[i], want[i])
		}
	}
	// Zero and one row are no-ops.
	one := []float64{5, 6}
	SuffixSumRows(one, 1, 2)
	if one[0] != 5 || one[1] != 6 {
		t.Fatal("single-row suffix sum changed data")
	}
	SuffixSumRows(nil, 0, 2)
}

// sameFloat reports whether a and b have the same bits, or are both NaN.
// When two NaNs with different payloads meet, x86 keeps the first
// operand's, and Go leaves the payload unspecified: the compiler may
// emit a commutative s += g as g + s after a register spill (the
// portable 8-wide loop does so for its last lane). Every non-NaN result
// of an addition is independent of operand order, so everything but the
// payload must match bit for bit. The DMT never sees two payloads: it
// drops rows with non-finite features, so any NaN it computes is the
// one default NaN of the hardware.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// gatherValue draws a test value: mostly normal, with NaN, ±Inf, −0 and
// subnormals mixed in so the bit comparison covers IEEE special cases.
func gatherValue(rng *rand.Rand) float64 {
	switch rng.Intn(64) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1))) // subnormal
	case 5:
		return -math.SmallestNonzeroFloat64
	}
	return rng.NormFloat64()
}

// AddGatherRows must be bit-identical to adding the gathered rows one at
// a time with Add, for every destination width (all scalar remainders,
// and one side and the other of each 32-column vector block), with rows
// wider than dst, dst at an offset that breaks 32-byte alignment, and
// any gather order, including repeats.
func TestAddGatherRowsMatchesSequentialAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16, 31, 32, 33, 63, 64, 65, 201} {
		for _, pad := range []int{0, 3} {
			const nRows = 23
			stride := w + pad
			src := make([]float64, nRows*stride)
			for i := range src {
				src[i] = gatherValue(rng)
			}
			rows := make([]int32, 40)
			for i := range rows {
				rows[i] = int32(rng.Intn(nRows))
			}
			rows[7] = rows[3] // at least one repeat
			got := make([]float64, w+1)[1:]
			want := make([]float64, w)
			for i := range got {
				got[i] = gatherValue(rng)
				want[i] = got[i]
			}
			AddGatherRows(got, src, rows, stride)
			for _, r := range rows {
				Add(want, src[int(r)*stride:int(r)*stride+w])
			}
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("w=%d stride=%d: AddGatherRows[%d] = %v, want %v (must be bit-identical)", w, stride, i, got[i], want[i])
				}
			}
			before := append([]float64(nil), got...)
			AddGatherRows(got, src, nil, stride) // empty gather is a no-op
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(before[i]) {
					t.Fatalf("w=%d stride=%d: empty gather changed dst", w, stride)
				}
			}
		}
	}
}

// A member whose window reaches past src, or a negative member, panics
// on every path, as the bounds-checked loop does.
func TestAddGatherRowsPanicsOnBadRow(t *testing.T) {
	for _, w := range []int{5, 32, 201} {
		for _, bad := range []int32{4, -1, math.MaxInt32} {
			src := make([]float64, 4*w)
			dst := make([]float64, w)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("w=%d: member %d of 4 rows did not panic", w, bad)
					}
				}()
				AddGatherRows(dst, src, []int32{0, 3, bad, 1}, w)
			}()
		}
		// The last row's window may end exactly at len(src).
		AddGatherRows(make([]float64, w), make([]float64, 3*w+w), []int32{3}, w)
	}
}

// BenchmarkAddGatherRowsOp measures one bucket gather at the shape of a
// 200-feature binary DMT: 201-wide gradient rows, ~190 members of a
// 250-row batch.
func BenchmarkAddGatherRowsOp(b *testing.B) {
	const w, nRows, members = 201, 250, 190
	rng := rand.New(rand.NewSource(73))
	src := make([]float64, nRows*w)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	rows := make([]int32, members)
	for i, r := range rng.Perm(nRows)[:members] {
		rows[i] = int32(r)
	}
	dst := make([]float64, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddGatherRows(dst, src, rows, w)
	}
}

func TestIsFiniteNonFiniteInputs(t *testing.T) {
	if !IsFinite([]float64{0, -0, 1e308, -1e308, 5e-324}) {
		t.Fatal("finite slice rejected")
	}
	if !IsFinite(nil) {
		t.Fatal("empty slice rejected")
	}
	for _, bad := range [][]float64{
		{math.NaN()},
		{math.Inf(1)},
		{math.Inf(-1)},
		{1, 2, math.NaN(), 4},
		{1, 2, 3, math.Inf(1)},
	} {
		if IsFinite(bad) {
			t.Fatalf("non-finite slice %v accepted", bad)
		}
	}
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, dst)
	want := []float64{21, 42, 63}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2}
	Add(a, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("Add = %v", a)
	}
	d := Sub([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatalf("Sub = %v", d)
	}
	Scale(0.5, d)
	if d[0] != 1.5 || d[1] != 1 {
		t.Fatalf("Scale = %v", d)
	}
}

func TestSubInto(t *testing.T) {
	dst := make([]float64, 2)
	SubInto(dst, []float64{5, 7}, []float64{2, 3})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("SubInto = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, 4}
	if Norm2Sq(x) != 25 {
		t.Fatalf("Norm2Sq = %v", Norm2Sq(x))
	}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
}

// Norm2SqDiff must equal Norm2Sq(Sub(a,b)) for sane magnitudes (extreme
// values overflow both computations identically to +Inf, which almostEq
// cannot compare).
func TestNorm2SqDiffMatchesSub(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		return almostEq(Norm2SqDiff(a[:], b[:]), Norm2Sq(Sub(a[:], b[:])), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestZero(t *testing.T) {
	a := []float64{1, 2, 3}
	Zero(a)
	for _, v := range a {
		if v != 0 {
			t.Fatalf("Zero left %v", a)
		}
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{3, 3, 3}, 0}, // ties resolve low
		{[]float64{-5, -2, -9}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSumClip(t *testing.T) {
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum")
	}
	if Clip(5, 0, 1) != 1 || Clip(-5, 0, 1) != 0 || Clip(0.5, 0, 1) != 0.5 {
		t.Fatal("Clip")
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, 2}) {
		t.Fatal("finite reported non-finite")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if IsFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
	if !IsFinite(nil) {
		t.Fatal("empty slice should be finite")
	}
}

// LogSumExp must match the naive computation where the naive one is
// stable, and must not overflow where it is not.
func TestLogSumExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 1+rng.Intn(8))
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		naive := 0.0
		for _, v := range x {
			naive += math.Exp(v)
		}
		if !almostEq(LogSumExp(x), math.Log(naive), 1e-9) {
			t.Fatalf("LogSumExp(%v) = %v, want %v", x, LogSumExp(x), math.Log(naive))
		}
	}
	// Stability: huge inputs must not overflow.
	got := LogSumExp([]float64{1000, 1000})
	if math.IsInf(got, 0) || !almostEq(got, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp stability: got %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(empty) should be -Inf")
	}
}
