package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/persist"
	"repro/internal/stream"
	"repro/internal/synth"
)

// wideCheckpointSHA256 is the digest of the checkpoint below, recorded
// with the pure-Go gather kernel. The SIMD kernel adds each coordinate's
// rows in the same order with the same IEEE double additions, so every
// accumulator, weight and therefore every checkpoint byte must match.
const wideCheckpointSHA256 = "f4cc60b3dae9ddd0a38ecd7c965e9a084729af796a6f1b81476f774bfce55323"

// TestWideCheckpointDigest pins the learnt state of a 200-feature DMT,
// whose 201-wide gradient rows take the vector gather path for 192
// columns and the scalar path for the rest, to a recorded digest.
func TestWideCheckpointDigest(t *testing.T) {
	const batches, size = 40, 250
	gen := synth.NewHyperplane(batches*size, 200, 0.1, 1)
	tree := New(Config{Seed: 1}, gen.Schema())
	for i := 0; i < batches; i++ {
		b, err := stream.NextBatch(gen, size)
		if err != nil {
			t.Fatal(err)
		}
		tree.Learn(b)
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, tree); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wideCheckpointSHA256 {
		t.Fatalf("checkpoint sha256 = %s, want %s (the learnt state changed)", got, wideCheckpointSHA256)
	}
}
