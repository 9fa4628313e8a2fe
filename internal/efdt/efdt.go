// Package efdt implements the Extremely Fast Decision Tree (Hoeffding
// Anytime Tree) of Manapragada, Webb & Salehi [14]: leaves split as soon
// as the best candidate beats *not splitting* by the Hoeffding bound, and
// inner nodes keep observing so their split decisions can be revisited —
// replaced by a better attribute or retracted entirely. Following the
// paper's configuration (Section VI-C), the minimum number of
// observations between re-evaluations is 1,000 and leaves vote by
// majority class.
package efdt

import (
	"fmt"
	"math/rand"

	"repro/internal/attrobs"
	"repro/internal/hoeffding"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Config holds the EFDT hyperparameters.
type Config struct {
	// Tree configures the shared Hoeffding machinery. LeafMode is forced
	// to MajorityClass.
	Tree hoeffding.Config
	// ReevalPeriod is the minimum observation weight between split
	// re-evaluations at an inner node (default 1000, the paper's value).
	ReevalPeriod float64
}

func (c Config) withDefaults() Config {
	c.Tree.LeafMode = hoeffding.MajorityClass
	c.Tree = c.Tree.WithDefaults()
	if c.ReevalPeriod <= 0 {
		c.ReevalPeriod = 1000
	}
	return c
}

// enode is an EFDT node; statistics are maintained at every node, leaf or
// inner, so inner splits can be re-scored later.
type enode struct {
	stats       *hoeffding.NodeStats
	feature     int
	threshold   float64
	kind        model.SplitKind
	mask        uint64
	left, right *enode
	depth       int
	sinceReeval float64

	// snap caches the immutable SnapNode that froze this subtree's
	// shape at the last publish; a structural revisit — install,
	// replace, retract, all at a node of the learn path — clears it
	// along that path, so Snapshot() re-freezes only the structure that
	// changed. Leaf statistics go through the tree's slot table.
	snap *model.SnapNode
	model.LeafSlot
}

func (n *enode) isLeaf() bool { return n.left == nil }

// Tree is the EFDT classifier.
type Tree struct {
	cfg    Config
	schema stream.Schema
	root   *enode
	rng    *rand.Rand
	src    *rng.Source        // counted source behind rng, for checkpointing
	sc     *hoeffding.Scratch // learn-path workspace shared by all nodes

	splits       int
	replacements int
	retractions  int
	slots        model.LeafTable[*enode]
}

// New returns an empty EFDT.
func New(cfg Config, schema stream.Schema) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{cfg: cfg, schema: schema, sc: hoeffding.NewScratch(schema)}
	t.rng, t.src = rng.New(cfg.Tree.Seed + 3)
	t.root = t.newLeaf(0)
	return t
}

// Schema returns the stream schema the tree was built for.
func (t *Tree) Schema() stream.Schema { return t.schema }

func (t *Tree) newLeaf(depth int) *enode {
	return &enode{stats: hoeffding.NewNodeStats(&t.cfg.Tree, t.schema, t.rng, t.sc), depth: depth}
}

// Name implements model.Classifier.
func (t *Tree) Name() string { return "EFDT" }

// Learn implements model.Classifier.
func (t *Tree) Learn(b stream.Batch) {
	for i, x := range b.X {
		t.learnOne(x, b.Y[i])
	}
}

func (t *Tree) learnOne(x []float64, y int) {
	cur := t.root
	for {
		cur.stats.Observe(x, y, 1)
		if cur.isLeaf() {
			t.slots.Touch(cur)
			if t.attemptInitialSplit(cur) {
				t.clearPath(x)
			}
			return
		}
		cur.sinceReeval++
		if cur.sinceReeval >= t.cfg.ReevalPeriod {
			cur.sinceReeval = 0
			if t.reevaluate(cur) {
				// The node just became a leaf (or got fresh children);
				// either way this instance's contribution is recorded.
				t.clearPath(x)
				return
			}
		}
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

// attemptInitialSplit applies the HATT leaf rule: split as soon as the
// best candidate's merit exceeds the merit of not splitting (zero) by the
// Hoeffding bound, or the bound falls below the tie threshold while the
// merit is positive. It reports whether the leaf split.
func (t *Tree) attemptInitialSplit(leaf *enode) bool {
	if !leaf.stats.ShouldAttempt() || leaf.stats.Pure() {
		return false
	}
	if t.cfg.Tree.MaxDepth > 0 && leaf.depth >= t.cfg.Tree.MaxDepth {
		return false
	}
	best, _, ok := leaf.stats.BestSplits()
	if !ok || best.Merit <= 0 {
		return false
	}
	eps := leaf.stats.Bound()
	if best.Merit > eps || (eps < t.cfg.Tree.Tau && best.Merit > t.cfg.Tree.Tau) {
		left, right := leaf.stats.DistributionsFor(best)
		t.install(leaf, best, [][]float64{left, right})
		return true
	}
	return false
}

// clearPath drops the frozen-structure cache along x's root-to-leaf
// path after a structural change on it.
func (t *Tree) clearPath(x []float64) {
	cur := t.root
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

// release frees the leaf slots of n's served subtree (n itself when it
// is a leaf) before the subtree changes shape.
func (t *Tree) release(n *enode) {
	if n.isLeaf() {
		t.slots.Release(n)
		return
	}
	t.release(n.left)
	t.release(n.right)
}

// install turns the node into an inner node with fresh leaf children
// (keeping its own statistics, which EFDT continues to update).
func (t *Tree) install(n *enode, cand attrobs.CandidateSplit, post [][]float64) {
	t.release(n)
	n.feature, n.threshold = cand.Feature, cand.Threshold
	n.kind, n.mask = cand.Kind, cand.Mask
	n.left = t.newLeaf(n.depth + 1)
	n.right = t.newLeaf(n.depth + 1)
	if len(post) == 2 {
		n.left.stats.SeedChild(post[0])
		n.right.stats.SeedChild(post[1])
	}
	n.sinceReeval = 0
	t.splits++
}

// currentSplitMerit re-scores the installed split from the node's own
// (continuously updated) observers, through the tree's scan scratch so
// periodic re-evaluations allocate nothing.
func (t *Tree) currentSplitMerit(n *enode) float64 {
	return n.stats.MeritFor(n.installedSplit())
}

// installedSplit describes the split currently installed at an inner
// node as a candidate, for re-scoring and identity comparison.
func (n *enode) installedSplit() attrobs.CandidateSplit {
	return attrobs.CandidateSplit{Feature: n.feature, Threshold: n.threshold, Kind: n.kind, Mask: n.mask}
}

// reevaluate revisits the split installed at n. It returns true when the
// node changed structurally (split replaced or retracted).
func (t *Tree) reevaluate(n *enode) bool {
	best, _, ok := n.stats.BestSplits()
	if !ok {
		return false
	}
	eps := n.stats.Bound()
	cur := t.currentSplitMerit(n)

	// Retract: not splitting beats the installed split.
	if 0-cur > eps {
		t.release(n)
		n.left, n.right = nil, nil
		t.retractions++
		return true
	}
	// Replace: a confidently better split that names a new attribute —
	// or, between categorical tests, a different test on the same
	// attribute (numeric thresholds drift every re-scan, so same-feature
	// threshold moves are not treated as replacements, matching HATT).
	differs := best.Feature != n.feature
	if !differs && (best.Kind != model.SplitThreshold || n.kind != model.SplitThreshold) {
		differs = !best.SameTest(n.installedSplit())
	}
	if differs && best.Merit-cur > eps && best.Merit > 0 {
		left, right := n.stats.DistributionsFor(best)
		t.install(n, best, [][]float64{left, right})
		t.replacements++
		return true
	}
	return false
}

// sortTo routes x to its leaf; non-finite values route left via the
// shared model.RouteLeft predicate, consistent with learn, predict and
// snapshot paths.
func (t *Tree) sortTo(x []float64) *enode {
	cur := t.root
	for !cur.isLeaf() {
		if model.RouteSplit(x[cur.feature], cur.kind, cur.threshold, cur.mask, true) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return cur
}

// Predict implements model.Classifier.
func (t *Tree) Predict(x []float64) int { return t.sortTo(x).stats.Predict(x) }

// Proba implements model.ProbabilisticClassifier.
func (t *Tree) Proba(x []float64, out []float64) []float64 {
	return t.sortTo(x).stats.Proba(x, out)
}

func countNodes(n *enode) (inner, leaves, depth int) {
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

// Complexity implements model.Classifier (majority-class leaves).
func (t *Tree) Complexity() model.Complexity {
	inner, leaves, depth := countNodes(t.root)
	return model.TreeComplexity(inner, leaves, depth, model.LeafMajority, t.schema.NumFeatures, t.schema.NumClasses)
}

// freeze returns the immutable SnapNode of n's subtree, reusing the one
// cached at the last publish when no structural revisit has happened
// below n since. A leaf freezes to its slot.
func (t *Tree) freeze(n *enode) *model.SnapNode {
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
func servingClone(n *enode) model.LeafScorer { return n.stats.ServingClone() }

// Snapshot implements model.Snapshotter: an immutable serving copy of
// the current tree. Inner-node statistics exist only to re-evaluate
// splits and are not captured; leaves get serving clones. Publishing is
// copy-on-write: the structure is re-frozen only along the paths of
// structural revisits since the previous Snapshot, and only the leaves
// learnt since are re-cloned, into copies of the slot-table chunks
// holding them.
func (t *Tree) Snapshot() model.Snapshot {
	root := t.freeze(t.root)
	return &model.CowTree{
		ModelName:     t.Name(),
		Comp:          model.TreeComplexity(root.Inner, root.Leaves, root.Depth, model.LeafMajority, t.schema.NumFeatures, t.schema.NumClasses),
		Root:          root,
		Leaves:        t.slots.Publish(servingClone),
		NonFiniteLeft: true,
	}
}

// Revisions returns the number of split replacements and retractions.
func (t *Tree) Revisions() (replacements, retractions int) {
	return t.replacements, t.retractions
}

// StructureVersion implements model.StructureVersioner with the
// lifetime count of splits, replacements and retractions.
func (t *Tree) StructureVersion() uint64 {
	return uint64(t.splits) + uint64(t.replacements) + uint64(t.retractions)
}

// String renders a compact shape description.
func (t *Tree) String() string {
	inner, leaves, depth := countNodes(t.root)
	return fmt.Sprintf("EFDT{inner: %d, leaves: %d, depth: %d, repl: %d, retr: %d}",
		inner, leaves, depth, t.replacements, t.retractions)
}
