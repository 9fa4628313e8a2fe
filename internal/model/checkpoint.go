package model

import "io"

// Checkpointer is the persistence contract every registered learner
// implements: SaveState streams the learner's complete training state —
// structure, sufficient statistics, detector windows, RNG position —
// as an opaque model-private payload. The matching restore path is a
// LoadState factory registered per model name (registry.RegisterLoader),
// so the persist envelope can reconstruct any model from its name alone,
// exactly as registry.New does for construction.
//
// The contract is strict: a save → load → continue run must be
// byte-identical in predictions and complexity to an uninterrupted run.
// SaveState is called under the same single-writer discipline as Learn.
type Checkpointer interface {
	Classifier
	// SaveState writes the model-private checkpoint payload. Callers
	// normally go through persist.Save, which wraps the payload in the
	// self-describing versioned envelope.
	SaveState(w io.Writer) error
}

// StructureVersioner is implemented by learners whose prediction
// function only changes shape on discrete structural events (splits,
// prunes, replacements, member swaps). StructureVersion returns a
// counter that increments on every such event; it never decreases.
// The network serving tier keys its envelope cache, replica follow
// versions and delta chains on it.
//
// Structureless learners (GLM, Naive Bayes) deliberately do not
// implement it: their parameters drift every batch, so no discrete
// version describes their state.
type StructureVersioner interface {
	StructureVersion() uint64
}
