package ensemble

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/synth"
)

// TestStructureVersionMonotone pins the StructureVersioner contract the
// version-keyed envelope serving relies on: the version never decreases,
// and every member swap/reset strictly increases it — even though a
// fresh member tree restarts its own split count at zero (replaced
// trees' versions are carried over, so the sum cannot stall or dip).
func TestStructureVersionMonotone(t *testing.T) {
	// An abruptly drifting stream provokes detector-driven member swaps.
	gen := synth.NewSEA(400_000, 0.2, 3)
	check := func(name string, c interface {
		Learn(stream.Batch)
		StructureVersion() uint64
	}, swaps func() int) {
		last := c.StructureVersion()
		lastSwaps := swaps()
		for i := 0; i < 600; i++ {
			b, err := stream.NextBatch(gen, 64)
			if err != nil {
				t.Fatal(err)
			}
			c.Learn(b)
			v := c.StructureVersion()
			if v < last {
				t.Fatalf("%s: StructureVersion decreased %d -> %d at batch %d", name, last, v, i)
			}
			if s := swaps(); s != lastSwaps {
				if v == last {
					t.Fatalf("%s: member swap at batch %d left StructureVersion unchanged at %d", name, i, v)
				}
				lastSwaps = s
			}
			last = v
		}
		if lastSwaps == 0 {
			t.Skipf("%s: no swaps provoked; monotonicity covered but swap-bump not exercised", name)
		}
	}
	arf := NewARF(Config{Size: 3, Seed: 3, DriftDelta: 0.05, WarnDelta: 0.1}, gen.Schema())
	check("ARF", arf, arf.Swaps)
	lb := NewLevBag(Config{Size: 3, Seed: 3, DriftDelta: 0.05}, gen.Schema())
	check("LevBag", lb, lb.Resets)
}
