package repro

import (
	"repro/internal/model"
	"repro/internal/serve"
)

// The concurrent serving layer: a Scorer makes a classifier safe for
// concurrent serving — any number of goroutines may call the read
// methods (Predict, Proba, PredictBatch, ProbaBatch, Complexity) while
// a single learning loop calls Learn. This is the online-learning
// serving pattern the paper targets: the model keeps training on the
// live stream while prediction traffic reads it.
//
// Three implementations are available (see Serve for registry-driven
// construction):
//
//   - SnapshotScorer (NewSnapshotScorer / Serve), the default: reads are
//     wait-free — they load an immutable model snapshot through an
//     atomic pointer that Learn republishes after every batch (or every
//     WithPublishEvery batches).
//   - ShardedScorer (Serve with WithShards): rows hash across N
//     independent replicas for multi-core serving and training.
//   - LockedScorer (NewScorer): reads under a sync.RWMutex read lock —
//     for classifiers that cannot snapshot; reads stall while Learn
//     holds the write lock. Serve and ScorerFromCheckpoint fall back to
//     it for such learners.
//
// Every Scorer also implements Checkpoint/Restore, persisting the served
// model through the same envelopes as Save/Load.
type Scorer = serve.Scorer

type (
	// LockedScorer is the RWMutex-based Scorer implementation.
	LockedScorer = serve.LockScorer
	// SnapshotScorer is the lock-free snapshot-publishing Scorer.
	SnapshotScorer = serve.SnapshotScorer
	// ShardedScorer hashes rows across independent learner replicas.
	ShardedScorer = serve.ShardedScorer
	// ModelSnapshot is an immutable serving view of a classifier.
	ModelSnapshot = model.Snapshot
	// Snapshotter is implemented by every registered learner: it exports
	// the immutable serving snapshot the SnapshotScorer publishes.
	Snapshotter = model.Snapshotter
)

// NewScorer wraps a classifier behind a sync.RWMutex. It remains the
// conservative default for arbitrary classifiers; use NewSnapshotScorer
// (or Serve) for wait-free reads.
func NewScorer(c Classifier) *LockedScorer { return serve.NewLocked(c) }

// NewSnapshotScorer wraps a snapshot-capable classifier (every model
// built by New is one) so reads are wait-free: after each publishEvery
// Learn calls the scorer clones an immutable serving snapshot and
// installs it with an atomic store; Predict/Proba/Complexity read the
// current snapshot without taking any lock. publishEvery <= 1 publishes
// after every Learn, making reads between Learn calls byte-identical to
// a locked scorer over the same model.
func NewSnapshotScorer(c Classifier, publishEvery int) (*SnapshotScorer, error) {
	return serve.NewSnapshot(c, publishEvery)
}
