package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// This file keeps the pre-index candidate accumulation — one pass folding
// every row into every accepting candidate, O(rows·candidates·weights) —
// as an unexported reference implementation, and proves the sorted-
// threshold candidate index equivalent to it: per-candidate statistics
// match to 1e-9 on random batches, and whole-stream structural decisions
// (the split/replace/prune sequence) are identical.

// naiveUpdateStats mirrors (*Tree).updateStats exactly, except that the
// candidate statistics are accumulated the naive way. Proposal drawing,
// the SGD step and admission all reuse the production code, so the two
// paths differ only in how rows are folded into candidates.
func naiveUpdateStats(t *Tree, n *node, b stream.Batch) {
	rows := b.Len()
	if rows == 0 {
		return
	}
	cfg := &t.cfg
	m := t.schema.NumFeatures
	w := n.mod.NumWeights()
	ix := n.idx

	t.propose(n, b)

	rowGrad := make([]float64, w)
	batchGrad := make([]float64, w)
	var batchLoss, used float64
	for i := 0; i < rows; i++ {
		x := b.X[i]
		if !linalg.IsFinite(x) {
			continue
		}
		li := n.mod.RowLossGrad(x, b.Y[i], rowGrad)
		batchLoss += li
		linalg.Add(batchGrad, rowGrad)
		used++
		for j := 0; j < m; j++ {
			lo, hi := ix.featRange(j)
			for pos := lo; pos < hi; pos++ {
				e := ix.entries[pos]
				if x[j] <= e.value {
					ix.loss[e.slot] += li
					ix.n[e.slot]++
					linalg.Add(ix.gradOf(e.slot), rowGrad)
				}
			}
		}
		n.mod.ApplyGrad(rowGrad, -cfg.effectiveLR(n.n+used))
	}
	if used == 0 {
		t.dropAllProposals(n)
		return
	}
	if cfg.L1 > 0 {
		n.mod.Shrink(cfg.L1 * cfg.LearningRate * used)
	}
	n.loss += batchLoss
	linalg.Add(n.grad, batchGrad)
	n.n += used
	t.admit(n, batchLoss, batchGrad, used)
}

// naiveLearn is Tree.Learn with the naive statistics fold.
func naiveLearn(t *Tree, b stream.Batch) {
	if b.Len() == 0 {
		return
	}
	t.step++
	naiveUpdate(t, t.root, b)
}

func naiveUpdate(t *Tree, n *node, b stream.Batch) {
	inner := !n.isLeaf()
	if !inner || !t.cfg.DisableInnerUpdates {
		naiveUpdateStats(t, n, b)
	}
	if inner {
		left, right := t.partition(b, n)
		if left.Len() > 0 {
			naiveUpdate(t, n.left, left)
		}
		if right.Len() > 0 {
			naiveUpdate(t, n.right, right)
		}
		if !t.cfg.DisablePruning && !t.cfg.DisableInnerUpdates {
			t.tryRestructure(n)
		}
		return
	}
	t.trySplit(n)
}

func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// compareTrees walks both trees in lockstep and asserts identical
// structure, identical candidate pools and per-candidate (loss, n, grad)
// within tol.
func compareTrees(t *testing.T, fast, ref *Tree, tol float64) {
	t.Helper()
	var walk func(a, b *node, path string)
	walk = func(a, b *node, path string) {
		t.Helper()
		if (a == nil) != (b == nil) {
			t.Fatalf("%s: structure diverged", path)
		}
		if a == nil {
			return
		}
		if a.isLeaf() != b.isLeaf() || (!a.isLeaf() && (a.feature != b.feature || a.threshold != b.threshold)) {
			t.Fatalf("%s: split diverged: (%d,%v) vs (%d,%v)", path, a.feature, a.threshold, b.feature, b.threshold)
		}
		if !closeTo(a.loss, b.loss, tol) || a.n != b.n {
			t.Fatalf("%s: node accumulators diverged: loss %v vs %v, n %v vs %v", path, a.loss, b.loss, a.n, b.n)
		}
		if a.idx.size() != b.idx.size() {
			t.Fatalf("%s: pool size %d vs %d", path, a.idx.size(), b.idx.size())
		}
		for pos, e := range a.idx.entries {
			j := a.idx.featureOf(pos)
			bpos, ok := b.idx.find(j, e.value)
			if !ok {
				t.Fatalf("%s: candidate (x%d <= %v) missing from reference pool", path, j, e.value)
			}
			bslot := b.idx.entries[bpos].slot
			if !closeTo(a.idx.loss[e.slot], b.idx.loss[bslot], tol) {
				t.Fatalf("%s: candidate (x%d <= %v) loss %v vs %v", path, j, e.value, a.idx.loss[e.slot], b.idx.loss[bslot])
			}
			if a.idx.n[e.slot] != b.idx.n[bslot] {
				t.Fatalf("%s: candidate (x%d <= %v) count %v vs %v", path, j, e.value, a.idx.n[e.slot], b.idx.n[bslot])
			}
			ga, gb := a.idx.gradOf(e.slot), b.idx.gradOf(bslot)
			for c := range ga {
				if !closeTo(ga[c], gb[c], tol) {
					t.Fatalf("%s: candidate (x%d <= %v) grad[%d] %v vs %v", path, j, e.value, c, ga[c], gb[c])
				}
			}
		}
		walk(a.left, b.left, path+"L")
		walk(a.right, b.right, path+"R")
	}
	walk(fast.root, ref.root, "root")
}

// Property test on random batches: random schemas, configs and data
// (including NaN rows and single-class batches) — after every Learn step
// the index statistics must match the naive fold within 1e-9.
func TestCandidateIndexMatchesNaiveAccumulation(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		m, c int // 0: drawn from the seed
	}{
		{101, 0, 0}, {102, 0, 0}, {103, 0, 0}, {104, 0, 0},
		// Gradient rows of 41 and 65 weights: the vector gather's
		// 32-column blocks plus a scalar tail.
		{105, 40, 2}, {106, 12, 5},
	} {
		seed := tc.seed
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(5)
		c := 2 + rng.Intn(3)
		if tc.m > 0 {
			m, c = tc.m, tc.c
		}
		cfg := Config{
			Seed:            seed,
			CandidateFactor: 1 + rng.Intn(3),
			ReplacementRate: 0.2 + 0.6*rng.Float64(),
		}
		fast := New(cfg, stream.Schema{NumFeatures: m, NumClasses: c, Name: "equiv"})
		ref := New(cfg, stream.Schema{NumFeatures: m, NumClasses: c, Name: "equiv"})
		for step := 0; step < 60; step++ {
			rows := 1 + rng.Intn(90)
			var b stream.Batch
			for i := 0; i < rows; i++ {
				x := make([]float64, m)
				for j := range x {
					x[j] = rng.Float64()
				}
				y := rng.Intn(c)
				if x[0] > 0.5 {
					y = (y + 1) % c
				}
				if rng.Float64() < 0.02 {
					x[rng.Intn(m)] = math.NaN()
				}
				b.X = append(b.X, x)
				b.Y = append(b.Y, y)
			}
			fast.Learn(b)
			naiveLearn(ref, b)
			compareTrees(t, fast, ref, 1e-9)
		}
	}
}

// Whole-stream decision equivalence on two synthetic streams: the
// structural change sequence (kind, step, depth, feature, threshold) of
// the index-based tree must be identical to the naive reference, and the
// gains must agree within 1e-9.
func TestFullStreamDecisionsMatchNaive(t *testing.T) {
	streams := []struct {
		name string
		gen  func(rng *rand.Rand, step int) stream.Batch
	}{
		{"piecewise", func(rng *rand.Rand, step int) stream.Batch {
			return piecewiseBatch(rng, 100, 0.05)
		}},
		{"drift", func(rng *rand.Rand, step int) stream.Batch {
			// Piecewise concept that turns linear mid-stream, exercising
			// splits first and restructuring afterwards.
			if step < 400 {
				return piecewiseBatch(rng, 100, 0.05)
			}
			return linearBatch(rng, []float64{2, -1.5, 1}, -0.6, 100, 0.05)
		}},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			cfg := Config{Seed: 55, RestructureGrace: 500}
			fast := New(cfg, schema(3, 2))
			ref := New(cfg, schema(3, 2))
			rngA := rand.New(rand.NewSource(77))
			rngB := rand.New(rand.NewSource(77))
			for step := 0; step < 700; step++ {
				fast.Learn(s.gen(rngA, step))
				naiveLearn(ref, s.gen(rngB, step))
			}
			ca, cb := fast.Changes(), ref.Changes()
			if len(ca) == 0 {
				t.Fatal("precondition: no structural changes happened")
			}
			if len(ca) != len(cb) {
				t.Fatalf("change counts differ: %d vs %d", len(ca), len(cb))
			}
			for i := range ca {
				a, b := ca[i], cb[i]
				if a.Step != b.Step || a.Kind != b.Kind || a.Depth != b.Depth ||
					a.Feature != b.Feature || a.Threshold != b.Threshold {
					t.Fatalf("change %d diverged: %+v vs %+v", i, a, b)
				}
				if !closeTo(a.Gain, b.Gain, 1e-9) {
					t.Fatalf("change %d gain %v vs %v", i, a.Gain, b.Gain)
				}
			}
			sa, ra, pa := fast.Revisions()
			sb, rb, pb := ref.Revisions()
			if sa != sb || ra != rb || pa != pb {
				t.Fatalf("revision counters diverged: %d/%d/%d vs %d/%d/%d", sa, ra, pa, sb, rb, pb)
			}
		})
	}
}
