package race

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"

	"repro/internal/stream"
	"repro/internal/synth"

	_ "repro/internal/glm"
	_ "repro/internal/hoeffding"
)

// forgeHeader rewrites the race header of a real checkpoint, leaving the
// arm envelopes untouched.
func forgeHeader(t *testing.T, raw []byte, edit func(*raceHeader)) []byte {
	t.Helper()
	n := binary.BigEndian.Uint32(raw[len(Magic):])
	body := raw[len(Magic)+4:]
	var hdr raceHeader
	if err := gob.NewDecoder(bytes.NewReader(body[:n])).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	edit(&hdr)
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(Magic), binary.BigEndian.AppendUint32(nil, uint32(head.Len()))...)
	out = append(out, head.Bytes()...)
	return append(out, body[n:]...)
}

// The race header's schema is what the server validates request width
// against, so it must agree with every arm's envelope: a header that
// disagrees (features, classes, kinds) or names a different arm model is
// rejected by FromCheckpoint and Restore instead of being served.
func TestCheckpointHeaderMustMatchArms(t *testing.T) {
	sea := synth.NewSEA(2_000, 0.1, 1)
	r, err := New(Config{Schema: sea.Schema(), Arms: []Arm{{Model: "VFDT (MC)"}, {Model: "GLM"}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := stream.NextBatch(sea, 100)
		if err != nil {
			t.Fatal(err)
		}
		r.Learn(b)
	}
	var ck bytes.Buffer
	if err := r.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := FromCheckpoint(bytes.NewReader(forgeHeader(t, ck.Bytes(), func(*raceHeader) {}))); err != nil {
		t.Fatalf("unforged checkpoint rejected: %v", err)
	}
	cases := map[string]func(*raceHeader){
		"features": func(h *raceHeader) {
			h.Schema.NumFeatures, h.Schema.FeatureNames, h.Schema.Kinds = 1, nil, nil
		},
		"classes": func(h *raceHeader) { h.Schema.NumClasses = 3 },
		"kinds": func(h *raceHeader) {
			h.Schema.Kinds = make([]stream.FeatureKind, h.Schema.NumFeatures)
			h.Schema.Kinds[0] = stream.FeatureKind{Categorical: true, Cardinality: 4}
		},
		"arm model": func(h *raceHeader) { h.Arms[1].Model = "Naive Bayes" },
	}
	for name, edit := range cases {
		forged := forgeHeader(t, ck.Bytes(), edit)
		if got, err := FromCheckpoint(bytes.NewReader(forged)); err == nil {
			t.Errorf("%s: FromCheckpoint accepted a forged header (Schema() = %d features, %d classes)",
				name, got.Schema().NumFeatures, got.Schema().NumClasses)
		}
		if err := r.Restore(bytes.NewReader(forged)); err == nil {
			t.Errorf("%s: Restore accepted a forged header", name)
		}
	}
}
