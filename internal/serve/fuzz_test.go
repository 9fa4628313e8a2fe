package serve

import (
	"bytes"
	"testing"

	"repro/internal/persist"
)

// checkpointSeeds generates one checkpoint of every framing FromCheckpoint
// dispatches on — a plain envelope, an RSHD sharded sequence, a RACE
// racer — plus a delta envelope, which it must refuse.
func checkpointSeeds(t testing.TB) [][]byte {
	batches, schema := seaBatches(t, 8, 100, 31)
	var seeds [][]byte
	for _, cfg := range []Config{
		{Model: "VFDT (MC)", Schema: schema},
		{Model: "DMT", Schema: schema, Mode: ModeSharded, Shards: 2},
		{Model: "race:glm,nb", Schema: schema},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:4] {
			s.Learn(b)
		}
		seeds = append(seeds, checkpointBytes(t, s))
	}
	base := seeds[0]
	s, err := FromCheckpoint(bytes.NewReader(base), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[4:] {
		s.Learn(b)
	}
	d, err := persist.MakeDelta(base, checkpointBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := persist.WriteDelta(&delta, d); err != nil {
		t.Fatal(err)
	}
	return append(seeds, delta.Bytes())
}

// FuzzFromCheckpoint feeds arbitrary bytes to the replica bootstrap
// decoder: every input yields either an error and no scorer, or a
// scorer, never a panic.
func FuzzFromCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := FromCheckpoint(bytes.NewReader(raw), 1)
		if err != nil {
			if s != nil {
				t.Fatalf("FromCheckpoint returned a %T scorer alongside error %v", s, err)
			}
			return
		}
		if s.Schema().Validate() != nil {
			t.Fatalf("FromCheckpoint built a %s scorer with an invalid schema %+v", s.Name(), s.Schema())
		}
	})
}
