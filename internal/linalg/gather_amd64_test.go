package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The AVX path and the portable loops must agree bit for bit (up to NaN
// payloads, see sameFloat) on random shapes, strides, gathers and values.
func TestAddGatherRowsAVXMatchesGeneric(t *testing.T) {
	if !useAVX {
		t.Skip("CPU or OS without AVX: only the portable path runs here")
	}
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 300; trial++ {
		w := 1 + rng.Intn(260)
		stride := w + rng.Intn(5)
		nRows := 1 + rng.Intn(40)
		src := make([]float64, nRows*stride)
		for i := range src {
			src[i] = gatherValue(rng)
		}
		rows := make([]int32, rng.Intn(3*nRows))
		for i := range rows {
			rows[i] = int32(rng.Intn(nRows))
		}
		off := rng.Intn(4)
		got := make([]float64, off+w)[off:]
		want := make([]float64, w)
		for i := range got {
			got[i] = gatherValue(rng)
			want[i] = got[i]
		}
		addGatherRows(got, src, rows, stride)
		addGatherRowsGeneric(want, src, rows, stride)
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("trial %d (w=%d stride=%d rows=%d): [%d] = %x, generic %x",
					trial, w, stride, len(rows), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
