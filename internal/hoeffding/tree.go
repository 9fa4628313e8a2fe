package hoeffding

import (
	"fmt"
	"math/rand"

	"repro/internal/attrobs"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// node is one tree node: a leaf carries statistics, an inner node a
// binary split — the numeric threshold test (x[feature] <= threshold
// goes left) or a categorical equality/subset test, discriminated by
// kind and routed through the shared model.RouteSplit predicate.
// Non-finite values route left for every kind — the observers skip
// them, so no test ever separates them, and deterministic routing keeps
// learn, predict and snapshot paths consistent. Unseen categorical
// levels route right, equally deterministically.
type node struct {
	stats       *NodeStats
	feature     int
	threshold   float64
	kind        model.SplitKind
	mask        uint64
	left, right *node
	depth       int

	// snap caches the immutable SnapNode that froze this subtree's
	// shape at the last publish; a split clears it along its path, so
	// Snapshot() re-freezes only the structure that changed. Leaf
	// statistics are published through the tree's slot table instead.
	snap *model.SnapNode
	model.LeafSlot
}

func (n *node) isLeaf() bool { return n.left == nil }

// sortTo routes x to its leaf.
func (n *node) sortTo(x []float64) *node {
	cur := n
	for !cur.isLeaf() {
		if model.RouteSplit(x[cur.feature], cur.kind, cur.threshold, cur.mask, true) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return cur
}

// clearPath drops the frozen-structure cache along x's root-to-leaf
// path after a structural change on it.
func (n *node) clearPath(x []float64) {
	cur := n
	for {
		cur.snap = nil
		if cur.isLeaf() {
			return
		}
		if model.RouteSplit(x[cur.feature], cur.kind, cur.threshold, cur.mask, true) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
}

// freeze returns the immutable SnapNode of n's subtree, reusing the one
// cached at the last publish when no split has happened below n since.
// A leaf freezes to its slot; its statistics go into the slot table.
func (t *Tree) freeze(n *node) *model.SnapNode {
	if n.snap == nil {
		if n.isLeaf() {
			n.snap = t.slots.Freeze(n)
		} else {
			n.snap = model.FreezeInnerSplit(n.feature, n.kind, n.threshold, n.mask, t.freeze(n.left), t.freeze(n.right))
		}
	}
	return n.snap
}

// servingClone is the slot-table entry of a leaf.
func servingClone(n *node) model.LeafScorer { return n.stats.ServingClone() }

// Tree is a Hoeffding tree (VFDT). The zero value is not usable; construct
// with New.
type Tree struct {
	cfg    Config
	schema stream.Schema
	root   *node
	rng    *rand.Rand
	src    *rng.Source // counted source behind rng, for checkpointing
	sc     *Scratch    // learn-path workspace shared by all nodes
	splits int         // lifetime split count, for diagnostics
	slots  model.LeafTable[*node]
}

// New returns an empty Hoeffding tree for the schema.
func New(cfg Config, schema stream.Schema) *Tree {
	cfg = cfg.WithDefaults()
	t := &Tree{cfg: cfg, schema: schema, sc: NewScratch(schema)}
	t.rng, t.src = rng.New(cfg.Seed + 1)
	t.root = &node{stats: NewNodeStats(&t.cfg, schema, t.rng, t.sc)}
	return t
}

// Name implements model.Classifier.
func (t *Tree) Name() string {
	if t.cfg.LeafMode == MajorityClass {
		return "VFDT (MC)"
	}
	return "VFDT (" + t.cfg.LeafMode.String() + ")"
}

// Schema returns the stream schema the tree was built for.
func (t *Tree) Schema() stream.Schema { return t.schema }

// Learn implements model.Classifier with unit instance weights.
func (t *Tree) Learn(b stream.Batch) {
	for i, x := range b.X {
		t.LearnOne(x, b.Y[i], 1)
	}
}

// LearnOne updates the tree with one weighted instance (the ensembles use
// Poisson weights).
func (t *Tree) LearnOne(x []float64, y int, w float64) {
	t.learnAt(t.root.sortTo(x), x, y, w)
}

// PredictLearnOne routes x to its leaf once, returns the prediction made
// before learning, then applies the weighted update — the test-then-train
// step of the ensembles in a single traversal.
func (t *Tree) PredictLearnOne(x []float64, y int, w float64) int {
	leaf := t.root.sortTo(x)
	pred := leaf.stats.Predict(x)
	t.learnAt(leaf, x, y, w)
	return pred
}

// learnAt observes the instance at its leaf and applies the VFDT split
// rule.
func (t *Tree) learnAt(leaf *node, x []float64, y int, w float64) {
	leaf.stats.Observe(x, y, w)
	t.slots.Touch(leaf)
	if !leaf.stats.ShouldAttempt() {
		return
	}
	if t.cfg.MaxDepth > 0 && leaf.depth >= t.cfg.MaxDepth {
		return
	}
	cand, ok := leaf.stats.DecideSplit()
	if !ok {
		return
	}
	t.splitLeaf(leaf, cand)
	t.root.clearPath(x)
}

// splitLeaf converts a leaf into an inner node with two fresh children.
func (t *Tree) splitLeaf(leaf *node, cand attrobs.CandidateSplit) {
	post := cand.Post
	t.slots.Release(leaf)
	leaf.feature = cand.Feature
	leaf.threshold = cand.Threshold
	leaf.kind = cand.Kind
	leaf.mask = cand.Mask
	leaf.left = &node{stats: NewNodeStats(&t.cfg, t.schema, t.rng, t.sc), depth: leaf.depth + 1}
	leaf.right = &node{stats: NewNodeStats(&t.cfg, t.schema, t.rng, t.sc), depth: leaf.depth + 1}
	if len(post) == 2 {
		leaf.left.stats.SeedChild(post[0])
		leaf.right.stats.SeedChild(post[1])
	}
	leaf.stats = nil // inner nodes of a plain VFDT stop observing
	t.splits++
}

// Predict implements model.Classifier.
func (t *Tree) Predict(x []float64) int {
	return t.root.sortTo(x).stats.Predict(x)
}

// Proba implements model.ProbabilisticClassifier.
func (t *Tree) Proba(x []float64, out []float64) []float64 {
	return t.root.sortTo(x).stats.Proba(x, out)
}

// countNodes returns (inner, leaves, depth).
func countNodes(n *node) (inner, leaves, depth int) {
	if n == nil {
		return 0, 0, 0
	}
	if n.isLeaf() {
		return 0, 1, 0
	}
	li, ll, ld := countNodes(n.left)
	ri, rl, rd := countNodes(n.right)
	d := ld
	if rd > d {
		d = rd
	}
	return li + ri + 1, ll + rl, d + 1
}

// Complexity implements model.Classifier with the paper's counting:
// majority leaves contribute no splits; NB/NBA leaves count as model
// leaves.
func (t *Tree) Complexity() model.Complexity {
	inner, leaves, depth := countNodes(t.root)
	kind := model.LeafMajority
	if t.cfg.LeafMode != MajorityClass {
		kind = model.LeafModel
	}
	return model.TreeComplexity(inner, leaves, depth, kind, t.schema.NumFeatures, t.schema.NumClasses)
}

// Snapshot implements model.Snapshotter: an immutable serving copy of
// the tree structure with serving clones of the leaf statistics.
// Publishing is copy-on-write: the structure is shared with the previous
// Snapshot except along the paths of splits since, and only the leaves
// learnt since are re-cloned, into copies of the slot-table chunks
// holding them.
func (t *Tree) Snapshot() model.Snapshot {
	root := t.freeze(t.root)
	kind := model.LeafMajority
	if t.cfg.LeafMode != MajorityClass {
		kind = model.LeafModel
	}
	return &model.CowTree{
		ModelName:     t.Name(),
		Comp:          model.TreeComplexity(root.Inner, root.Leaves, root.Depth, kind, t.schema.NumFeatures, t.schema.NumClasses),
		Root:          root,
		Leaves:        t.slots.Publish(servingClone),
		NonFiniteLeft: true,
	}
}

// LifetimeSplits returns the number of split events since construction.
func (t *Tree) LifetimeSplits() int { return t.splits }

// StructureVersion implements model.StructureVersioner with the lifetime
// split count — a VFDT only ever grows, so splits capture every
// structural change.
func (t *Tree) StructureVersion() uint64 { return uint64(t.splits) }

// String renders a compact description of the tree shape.
func (t *Tree) String() string {
	inner, leaves, depth := countNodes(t.root)
	return fmt.Sprintf("%s{inner: %d, leaves: %d, depth: %d}", t.Name(), inner, leaves, depth)
}
