package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/stream"
)

// xorDriftBatches is a stream that forces every tree learner to grow and
// then rebuild: three uniform features, an XOR concept on x0 and x1
// (which no single linear model fits) for the first and last third, and
// the linear concept x0 + x2 > 1 in between; 5% label noise.
func xorDriftBatches(n, size int, seed int64) ([]stream.Batch, stream.Schema) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Batch, n)
	for k := range out {
		for i := 0; i < size; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			var y bool
			if k*3/n == 1 {
				y = x[0]+x[2] > 1
			} else {
				y = (x[0] <= 0.5) != (x[1] <= 0.5)
			}
			if rng.Float64() < 0.05 {
				y = !y
			}
			label := 0
			if y {
				label = 1
			}
			out[k].X = append(out[k].X, x)
			out[k].Y = append(out[k].Y, label)
		}
	}
	return out, stream.Schema{NumFeatures: 3, NumClasses: 2, Name: "xor-drift"}
}

// looseSplits makes every tree learner restructure within a few dozen
// batches: short grace periods, a loose Hoeffding delta and AIC
// epsilon, a fast GLM step, a short DMT restructure grace and EFDT
// re-evaluation period.
func looseSplits(p *registry.Params) {
	p.GracePeriod = 50
	p.Delta = 1e-3
	p.Epsilon = 1e-2
	p.LearningRate = 0.5
	p.RestructureGrace = 300
	p.ReevalPeriod = 200
}

// captured is one published snapshot and what the live model answered
// on the probe rows when it was taken.
type captured struct {
	at    int
	snap  model.Snapshot
	preds []int
	proba [][]float64
}

// liveAnswers records the live model's Predict and Proba on the probes.
func liveAnswers(c model.Classifier, probes [][]float64) ([]int, [][]float64) {
	preds := make([]int, len(probes))
	proba := make([][]float64, len(probes))
	pc, _ := c.(model.ProbabilisticClassifier)
	for i, x := range probes {
		preds[i] = c.Predict(x)
		if pc != nil {
			proba[i] = pc.Proba(x, nil)
		}
	}
	return preds, proba
}

// check fails unless the snapshot still answers exactly as recorded.
func (c *captured) check(t *testing.T, probes [][]float64, when string) {
	t.Helper()
	ps, _ := c.snap.(model.ProbaSnapshot)
	for i, x := range probes {
		if got := c.snap.Predict(x); got != c.preds[i] {
			t.Fatalf("snapshot of batch %d, %s: Predict(probe %d) = %d, live said %d", c.at, when, i, got, c.preds[i])
		}
		if ps == nil || c.proba[i] == nil {
			continue
		}
		got := ps.Proba(x, nil)
		for k := range got {
			if got[k] != c.proba[i][k] {
				t.Fatalf("snapshot of batch %d, %s: Proba(probe %d)[%d] = %v, live said %v", c.at, when, i, k, got[k], c.proba[i][k])
			}
		}
	}
}

// checkSlotTable fails when a CowTree's slot table holds a predictor no
// leaf reaches (a leaked slot) or a leaf indexes an empty slot.
func checkSlotTable(t *testing.T, snap model.Snapshot, at int) {
	t.Helper()
	ct, ok := snap.(*model.CowTree)
	if !ok {
		return
	}
	held := make(map[int]bool)
	var walk func(n *model.SnapNode)
	walk = func(n *model.SnapNode) {
		if n.Left == nil {
			if held[n.Slot] || ct.Leaf(n.Slot) == nil {
				t.Fatalf("batch %d: leaf slot %d is shared or empty", at, n.Slot)
			}
			held[n.Slot] = true
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ct.Root)
	for c, chunk := range ct.Leaves {
		for j, l := range chunk {
			if i := c*len(chunk) + j; l != nil && !held[i] {
				t.Fatalf("batch %d: slot %d holds a predictor no leaf reaches", at, i)
			}
		}
	}
}

// Every registered model publishes copy-on-write snapshots that (a)
// answer exactly like the live model at the moment of publishing and
// (b) keep answering that way after any later learning, structural
// change (splits, prunes, replacements, promotions, ensemble swaps) and a
// checkpoint Restore of the live model — no later publish may write into
// a table or node an earlier snapshot reads.
func TestSnapshotsAreCopyOnWrite(t *testing.T) {
	const n = 300
	batches, schema := xorDriftBatches(n+1, 100, 3)
	probes := batches[n].X
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			live, err := registry.New(name, schema, registry.WithSeed(5), looseSplits)
			if err != nil {
				t.Fatal(err)
			}
			sv, _ := live.(model.StructureVersioner)
			var v0 uint64
			if sv != nil {
				v0 = sv.StructureVersion()
			}
			var snaps []*captured
			publish := func(at int) {
				snap := live.(model.Snapshotter).Snapshot()
				preds, proba := liveAnswers(live, probes)
				c := &captured{at: at, snap: snap, preds: preds, proba: proba}
				c.check(t, probes, "when published")
				checkSlotTable(t, snap, at)
				snaps = append(snaps, c)
			}
			publish(-1)
			for k, b := range batches[:n] {
				live.Learn(b)
				publish(k)
				if k == n/2 {
					for _, c := range snaps {
						c.check(t, probes, "before the restore")
					}
					// Restore mid-stream: the restored model has never
					// published, so its first Snapshot assigns every slot.
					var buf bytes.Buffer
					if err := persist.Save(&buf, live); err != nil {
						t.Fatal(err)
					}
					restored, err := persist.Load(&buf)
					if err != nil {
						t.Fatal(err)
					}
					live = restored
					sv, _ = live.(model.StructureVersioner)
					publish(k)
				}
			}
			for _, c := range snaps {
				c.check(t, probes, "at the end of the stream")
			}
			if sv != nil && sv.StructureVersion() == v0 {
				t.Fatalf("no structural change over %d publishes: the stream does not exercise the structure", len(snaps))
			}
		})
	}
}
