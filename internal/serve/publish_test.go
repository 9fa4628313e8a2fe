package serve

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/stream"
)

// newVFDTSnapshot builds a per-batch SnapshotScorer over a seeded VFDT
// (MC), whose structure version moves every few thousand SEA rows.
func newVFDTSnapshot(t *testing.T, schema stream.Schema, seed int64) (*SnapshotScorer, model.StructureVersioner) {
	t.Helper()
	s, err := NewSnapshot(registryMust(t, "VFDT (MC)", schema, seed), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Unwrap().(model.StructureVersioner)
}

// checkpointBytes captures s.Checkpoint.
func checkpointBytes(t testing.TB, s Scorer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Checkpoint always encodes the live model: a batch that moves no
// structure still changes the bytes, because leaf statistics drift
// between structural events and a checkpoint must carry them.
func TestCheckpointReflectsLeafDrift(t *testing.T) {
	batches, schema := seaBatches(t, 40, 50, 42)
	s, sv := newVFDTSnapshot(t, schema, 9)
	a := checkpointBytes(t, s)
	if !bytes.Equal(a, checkpointBytes(t, s)) {
		t.Fatal("back-to-back checkpoints of one state differ")
	}
	v := sv.StructureVersion()
	s.Learn(batches[0])
	if sv.StructureVersion() != v {
		t.Fatal("precondition: one 50-row batch should not split the tree")
	}
	b := checkpointBytes(t, s)
	if bytes.Equal(a, b) {
		t.Fatal("checkpoint after a non-structural Learn did not capture the leaf drift")
	}
	if _, h, err := persist.ReadRaw(bytes.NewReader(b)); err != nil || h.StructVersion != v {
		t.Fatalf("checkpoint header at version %d (err %v), live is %d", h.StructVersion, err, v)
	}
}

// Deltas between successive checkpoints taken at structural events
// chain back to the last checkpoint byte-identically — what the
// prediction server's ?since= history relies on.
func TestSnapshotCheckpointsChainAsDeltas(t *testing.T) {
	batches, schema := seaBatches(t, 400, 50, 7)
	s, sv := newVFDTSnapshot(t, schema, 3)
	base := checkpointBytes(t, s)
	prev := base
	var deltas []*persist.Delta
	for i := 0; i < len(batches) && len(deltas) < 3; i++ {
		v := sv.StructureVersion()
		s.Learn(batches[i])
		if sv.StructureVersion() == v {
			continue
		}
		next := checkpointBytes(t, s)
		d, err := persist.MakeDelta(prev, next)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
		prev = next
	}
	if len(deltas) < 3 {
		t.Fatalf("only %d structural events in %d batches", len(deltas), len(batches))
	}
	head, err := persist.ApplyChain(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, checkpointBytes(t, s)) {
		t.Fatal("base+delta chain is not byte-identical to the full checkpoint")
	}
	if _, err := persist.Load(bytes.NewReader(head)); err != nil {
		t.Fatalf("reconstructed head does not load: %v", err)
	}
}

// TestShardedRestoreIsAtomic: a corrupt checkpoint must leave a
// ShardedScorer completely untouched — never serving a mix of restored
// and pre-restore replicas.
func TestShardedRestoreIsAtomic(t *testing.T) {
	batches, schema := seaBatches(t, 30, 50, 21)
	mk := func() Scorer {
		s, err := New(Config{Model: "DMT", Schema: schema, Mode: ModeSharded, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	source := mk()
	for _, b := range batches {
		source.Learn(b)
	}
	var ckpt bytes.Buffer
	if err := source.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Target and reference scorers share a different training history.
	target, reference := mk(), mk()
	for _, b := range batches[:10] {
		target.Learn(b)
		reference.Learn(b)
	}
	// Truncate inside the LAST shard's envelope: with the old in-place
	// restore, shards 0 and 1 would already be swapped when the error
	// surfaces.
	truncated := ckpt.Bytes()[:ckpt.Len()-20]
	if err := target.Restore(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated sharded checkpoint accepted")
	}
	var pa, pb []int
	for _, b := range batches {
		pa = target.PredictBatch(b.X, pa)
		pb = reference.PredictBatch(b.X, pb)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("failed Restore mutated shard state")
			}
		}
	}
	// And the intact checkpoint still restores fully.
	if err := target.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		pa = target.PredictBatch(b.X, pa)
		pb = source.PredictBatch(b.X, pb)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("restored sharded scorer diverged from checkpoint source")
			}
		}
	}
}

// BenchmarkPublishEveryOp measures one Learn plus the snapshot publish
// that follows it; the publishes/batch metric pins the every-batch
// policy.
func BenchmarkPublishEveryOp(b *testing.B) {
	batches, schema := seaBatches(b, 256, 50, 42)
	c, err := registry.New("VFDT (MC)", schema, registry.WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSnapshot(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Learn(batches[i%len(batches)])
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Publishes())/float64(b.N), "publishes/batch")
}
