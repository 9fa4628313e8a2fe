package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/synth"

	_ "repro/internal/hoeffding" // registers "VFDT (MC)"
)

// vfdtBase and vfdtTarget hold the pair of vfdtEnvelopes, built by
// TestMain before any test runs: gob numbers the wire types of a process
// in the order they are first encoded, so an envelope's bytes depend on
// what the process encoded before it.
var vfdtBase, vfdtTarget []byte

func TestMain(m *testing.M) {
	var err error
	if vfdtBase, vfdtTarget, err = vfdtEnvelopes(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// vfdtEnvelopes returns a fixed pair of VFDT (MC) checkpoint envelopes
// of about 460 kB: the tree after 40,000 SEA rows and after 2,000 more,
// learnt in 100-row batches with loose split settings so it grows to
// the size a long-running trainer reaches. Nearly every 512-byte block
// of the pair differs, as between two fetches of a replica following a
// busy trainer.
func vfdtEnvelopes() (base, target []byte, err error) {
	gen := synth.NewSEA(50_000, 0.1, 17)
	c, err := registry.New("VFDT (MC)", gen.Schema(), registry.WithSeed(3), func(p *registry.Params) {
		p.GracePeriod, p.Delta, p.Tau = 10, 0.1, 0.2
	})
	if err != nil {
		return nil, nil, err
	}
	save := func() ([]byte, error) {
		var buf bytes.Buffer
		err := Save(&buf, c)
		return buf.Bytes(), err
	}
	learn := func(rows int) error {
		for ; rows > 0; rows -= 100 {
			b, err := stream.NextBatch(gen, 100)
			if err != nil {
				return err
			}
			c.Learn(b)
		}
		return nil
	}
	if err = learn(40_000); err != nil {
		return nil, nil, err
	}
	if base, err = save(); err != nil {
		return nil, nil, err
	}
	if err = learn(2_000); err != nil {
		return nil, nil, err
	}
	target, err = save()
	return base, target, err
}

func sha(p []byte) string {
	s := sha256.Sum256(p)
	return hex.EncodeToString(s[:])
}

// The patch bytes of a fixed envelope pair are pinned: a faster scan
// must find the same COPY/ADD opcodes, not merely a valid patch.
func TestMakePatchPinned(t *testing.T) {
	base, target := vfdtBase, vfdtTarget
	patch := makePatch(base, target)
	t.Logf("base %d B, target %d B, patch %d B", len(base), len(target), len(patch))
	for _, c := range []struct{ what, got, want string }{
		{"base envelope", sha(base), "02dc9bcbcb4b5803ee0c3c79ade5831f6ee524aad61572434c5f0ab2a9a43b2e"},
		{"target envelope", sha(target), "5cbb4a7addf0400635914c31f20e8d8c308600f843a49ca3a0ef9631f3d67723"},
		{"patch", sha(patch), "2ef44339e21a43075ec3c53f3879804535742980f369ae972139eb9dc5c4362f"},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 %s, pinned %s", c.what, c.got, c.want)
		}
	}
	out, err := applyPatch(base, patch, int64(len(target)))
	if err != nil || !bytes.Equal(out, target) {
		t.Fatalf("patch does not reproduce the target (err %v)", err)
	}
}

// BenchmarkMakePatchOp times the rolling block diff of the fixed VFDT
// envelope pair.
func BenchmarkMakePatchOp(b *testing.B) {
	base, target := vfdtBase, vfdtTarget
	b.SetBytes(int64(len(target)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		makePatch(base, target)
	}
}
