package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/glm"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/stream"
)

// The gob document types of the DMT checkpoint payload. Version 1 is the
// legacy pre-envelope format: it carried no RNG state, so a loaded tree
// was re-seeded deterministically from Config.Seed and the step counter
// — reproducible, but its future random draws differed from an
// uninterrupted run. Version 2 (the payload inside the persist envelope)
// adds the counted RNG state, making save → load → continue byte-
// identical to never having stopped.
type treeDoc struct {
	Version  int
	Config   Config
	Schema   stream.Schema
	Step     int
	Splits   int
	Replaces int
	Prunes   int
	Changes  []ChangeEvent
	Root     *nodeDoc
	RNG      rng.State // since version 2
}

type nodeDoc struct {
	Weights    []float64
	Loss       float64
	Grad       []float64
	N          float64
	Candidates []candDoc
	Feature    int
	Threshold  float64
	// Kind and Mask discriminate the split test (threshold, equality or
	// level subset). Pre-categorical documents carry neither; gob decodes
	// them as zero values, i.e. the numeric threshold kind — old
	// checkpoints load unchanged.
	Kind  uint8
	Mask  uint64
	Depth int
	Left  *nodeDoc
	Right *nodeDoc
}

type candDoc struct {
	Feature int
	Value   float64
	Loss    float64
	Grad    []float64
	N       float64
}

const (
	treeDocVersionLegacy = 1
	treeDocVersion       = 2
)

// doc assembles the serialisable document of the current tree state.
func (t *Tree) doc() treeDoc {
	return treeDoc{
		Version:  treeDocVersion,
		Config:   t.cfg,
		Schema:   t.schema,
		Step:     t.step,
		Splits:   t.splits,
		Replaces: t.replaces,
		Prunes:   t.prunes,
		Changes:  t.Changes(),
		Root:     encodeNode(t.root),
		RNG:      t.rngSrc.State(),
	}
}

// SaveState implements model.Checkpointer: the full tree state
// (structure, simple-model weights, loss/gradient accumulators,
// candidate statistics, change log, RNG position) as the checkpoint
// payload. Use repro.Save / persist.Save for the enveloped form.
func (t *Tree) SaveState(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(t.doc()); err != nil {
		return fmt.Errorf("core: save DMT: %w", err)
	}
	return nil
}

// Save writes the tree as a registry-wide checkpoint envelope.
//
// Deprecated: Save is a shim over the unified persistence API; new code
// should use repro.Save, which works for every registered model.
func (t *Tree) Save(w io.Writer) error {
	return persist.Save(w, t)
}

// saveLegacyV1 writes the pre-envelope version-1 bare gob document. It
// exists so tests (and migration tooling) can exercise the legacy read
// path without keeping old binaries around.
func (t *Tree) saveLegacyV1(w io.Writer) error {
	doc := t.doc()
	doc.Version = treeDocVersionLegacy
	doc.RNG = rng.State{}
	if err := gob.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("core: save legacy DMT: %w", err)
	}
	return nil
}

// Load restores a Dynamic Model Tree from either checkpoint format: a
// persist envelope written by Save / repro.Save, or a legacy version-1
// bare gob document from before the envelope existed.
func Load(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	if persist.SniffEnvelope(br) {
		env, err := persist.ReadEnvelope(br)
		if err != nil {
			return nil, fmt.Errorf("core: load DMT: %w", err)
		}
		c, err := persist.LoadEnvelope(env)
		if err != nil {
			return nil, fmt.Errorf("core: load DMT: %w", err)
		}
		t, ok := c.(*Tree)
		if !ok {
			return nil, fmt.Errorf("core: load DMT: checkpoint holds a %s, not a DMT", c.Name())
		}
		return t, nil
	}
	return loadPayload(br, nil)
}

// loadPayload decodes a tree document (any supported version) and
// rebuilds the tree. wantSchema, when non-nil, must match the document's
// schema — the envelope loader passes the header schema through so a
// tampered envelope cannot smuggle a mismatched payload.
func loadPayload(r io.Reader, wantSchema *stream.Schema) (*Tree, error) {
	var doc treeDoc
	if err := gob.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: load DMT: %w", err)
	}
	if doc.Version != treeDocVersionLegacy && doc.Version != treeDocVersion {
		return nil, fmt.Errorf("core: load DMT: unsupported document version %d (this build reads %d and the legacy %d)",
			doc.Version, treeDocVersion, treeDocVersionLegacy)
	}
	if err := doc.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("core: load DMT: %w", err)
	}
	if wantSchema != nil && (doc.Schema.NumFeatures != wantSchema.NumFeatures || doc.Schema.NumClasses != wantSchema.NumClasses) {
		return nil, fmt.Errorf("core: load DMT: payload schema (%d features, %d classes) does not match envelope (%d features, %d classes)",
			doc.Schema.NumFeatures, doc.Schema.NumClasses, wantSchema.NumFeatures, wantSchema.NumClasses)
	}
	if wantSchema != nil && !doc.Schema.SameKinds(*wantSchema) {
		return nil, fmt.Errorf("core: load DMT: payload schema feature kinds do not match envelope")
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("core: load DMT: document has no root")
	}
	t := &Tree{
		cfg:      doc.Config.withDefaults(),
		schema:   doc.Schema,
		step:     doc.Step,
		splits:   doc.Splits,
		replaces: doc.Replaces,
		prunes:   doc.Prunes,
		changes:  doc.Changes[max(0, len(doc.Changes)-maxChangeLog):],
	}
	if doc.Version >= treeDocVersion {
		t.rng, t.rngSrc = rng.Restore(doc.RNG)
	} else {
		// Legacy documents carry no RNG state: re-seed deterministically
		// from the seed and step counter, the historical v1 behaviour.
		t.rng, t.rngSrc = rng.New(doc.Config.Seed*1_000_003 + int64(doc.Step))
	}
	root, err := t.decodeNode(doc.Root)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.scratch = newScratch(t.root.mod.NumWeights(), maxSlots(&t.cfg, t.schema))
	t.k = float64(t.root.mod.FreeParams())
	return t, nil
}

func encodeNode(n *node) *nodeDoc {
	if n == nil {
		return nil
	}
	doc := &nodeDoc{
		Weights:   n.mod.Weights(),
		Loss:      n.loss,
		Grad:      append([]float64(nil), n.grad...),
		N:         n.n,
		Feature:   n.feature,
		Threshold: n.threshold,
		Kind:      uint8(n.kind),
		Mask:      n.mask,
		Depth:     n.depth,
		Left:      encodeNode(n.left),
		Right:     encodeNode(n.right),
	}
	// Candidates are emitted in index order (feature ascending, threshold
	// descending); the document format is unchanged from version 1, so
	// pre-index checkpoints load into the index and vice versa.
	ix := n.idx
	for j := 0; j < ix.m; j++ {
		lo, hi := ix.featRange(j)
		for pos := lo; pos < hi; pos++ {
			e := ix.entries[pos]
			doc.Candidates = append(doc.Candidates, candDoc{
				Feature: j, Value: e.value,
				Loss: ix.loss[e.slot], Grad: append([]float64(nil), ix.gradOf(e.slot)...), N: ix.n[e.slot],
			})
		}
	}
	return doc
}

func (t *Tree) decodeNode(doc *nodeDoc) (*node, error) {
	mod := glm.New(t.schema.NumFeatures, t.schema.NumClasses, nil)
	if len(doc.Weights) != mod.NumWeights() {
		return nil, fmt.Errorf("core: load DMT: node weight length %d, schema wants %d",
			len(doc.Weights), mod.NumWeights())
	}
	mod.SetWeights(doc.Weights)
	if len(doc.Grad) != mod.NumWeights() {
		return nil, fmt.Errorf("core: load DMT: node gradient length %d, schema wants %d",
			len(doc.Grad), mod.NumWeights())
	}
	if !model.SplitKind(doc.Kind).Valid() {
		return nil, fmt.Errorf("core: load DMT: node has unknown split kind %d", doc.Kind)
	}
	m := t.schema.NumFeatures
	n := &node{
		mod:       mod,
		loss:      doc.Loss,
		grad:      append([]float64(nil), doc.Grad...),
		n:         doc.N,
		feature:   doc.Feature,
		threshold: doc.Threshold,
		kind:      model.SplitKind(doc.Kind),
		mask:      doc.Mask,
		depth:     doc.Depth,
		idx:       newCandIndex(m, mod.NumWeights(), maxSlots(&t.cfg, t.schema)),
	}
	for _, c := range doc.Candidates {
		if len(c.Grad) != mod.NumWeights() {
			return nil, fmt.Errorf("core: load DMT: candidate gradient length %d", len(c.Grad))
		}
		if c.Feature < 0 || c.Feature >= m {
			return nil, fmt.Errorf("core: load DMT: candidate feature %d out of range [0,%d)", c.Feature, m)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return nil, fmt.Errorf("core: load DMT: non-finite candidate threshold")
		}
		if card := t.schema.Cardinality(c.Feature); card > 0 {
			if c.Value != math.Trunc(c.Value) || c.Value < 0 || c.Value >= float64(card) {
				return nil, fmt.Errorf("core: load DMT: candidate level code %g out of range for feature %d (cardinality %d)",
					c.Value, c.Feature, card)
			}
		}
		slot, ok := n.idx.insert(c.Feature, c.Value)
		if !ok {
			if _, dup := n.idx.find(c.Feature, c.Value); dup {
				continue // duplicate candidates collapse, as they always did
			}
			return nil, fmt.Errorf("core: load DMT: candidate pool exceeds arena (%d slots)", maxSlots(&t.cfg, t.schema))
		}
		n.idx.loss[slot] = c.Loss
		n.idx.n[slot] = c.N
		copy(n.idx.gradOf(slot), c.Grad)
	}
	if (doc.Left == nil) != (doc.Right == nil) {
		return nil, fmt.Errorf("core: load DMT: non-binary node in document")
	}
	if doc.Left != nil {
		left, err := t.decodeNode(doc.Left)
		if err != nil {
			return nil, err
		}
		right, err := t.decodeNode(doc.Right)
		if err != nil {
			return nil, err
		}
		n.left, n.right = left, right
	}
	return n, nil
}
