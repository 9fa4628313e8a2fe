// Package hatada implements the adaptive Hoeffding tree ("HT-Ada") of
// Bifet & Gavaldà [13]: a VFDT in which every node monitors its error with
// an ADWIN detector, grows an alternate subtree when change is detected,
// and swaps the alternate in once it is measurably better. Per the paper's
// configuration (Section VI-C) leaves vote by majority class and no
// bootstrap sampling is used in the leaves.
package hatada

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/drift"
	"repro/internal/hoeffding"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Config holds the HT-Ada hyperparameters: the embedded Hoeffding tree
// configuration plus the ADWIN confidence and the alternate-tree
// management cadence.
type Config struct {
	// Tree configures the underlying Hoeffding tree machinery (grace
	// period, delta, tau, criterion, bins). LeafMode is forced to
	// MajorityClass to match the paper's setup.
	Tree hoeffding.Config
	// ADWINDelta is the confidence of the per-node error monitors
	// (default 0.002).
	ADWINDelta float64
	// CompareEvery is how many instances pass a node between
	// alternate-vs-main comparisons (default 200).
	CompareEvery int
	// MinCompareWidth is the minimum ADWIN window width on both sides
	// before a swap or discard decision is allowed (default 300).
	MinCompareWidth int
}

func (c Config) withDefaults() Config {
	c.Tree.LeafMode = hoeffding.MajorityClass
	c.Tree = c.Tree.WithDefaults()
	if c.ADWINDelta <= 0 {
		c.ADWINDelta = 0.002
	}
	if c.CompareEvery <= 0 {
		c.CompareEvery = 200
	}
	if c.MinCompareWidth <= 0 {
		c.MinCompareWidth = 300
	}
	return c
}

// anode is a node of the adaptive tree. Leaves carry statistics; every
// node lazily owns an ADWIN error monitor; inner nodes may own an
// alternate subtree.
type anode struct {
	stats       *hoeffding.NodeStats
	feature     int
	threshold   float64
	kind        model.SplitKind
	mask        uint64
	left, right *anode
	depth       int

	errMon    *drift.ADWIN
	alt       *anode
	altErrMon *drift.ADWIN
	altTicks  int

	// snap caches the immutable SnapNode that froze this subtree's
	// shape at the last publish; a split or promotion clears it along
	// the learn path, so Snapshot() re-freezes only the structure that
	// changed. Alternate subtrees are never frozen and hold no slot — a
	// promotion rewires n in place, and n is on the cleared path.
	snap *model.SnapNode
	model.LeafSlot
}

func (n *anode) isLeaf() bool { return n.left == nil }

// sortTo routes x to its leaf; non-finite values route left via the
// shared model.RouteSplit predicate, consistent with learn, predict and
// snapshot paths.
func (n *anode) sortTo(x []float64) *anode {
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

// Tree is the HT-Ada classifier.
type Tree struct {
	cfg    Config
	schema stream.Schema
	root   *anode
	rng    *rand.Rand
	src    *rng.Source        // counted source behind rng, for checkpointing
	sc     *hoeffding.Scratch // learn-path workspace shared by all nodes

	splits int // leaf splits (main tree and alternates)
	prunes int // alternate promotions (subtree replacements)
	slots  model.LeafTable[*anode]
}

// New returns an empty adaptive Hoeffding tree.
func New(cfg Config, schema stream.Schema) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{cfg: cfg, schema: schema, sc: hoeffding.NewScratch(schema)}
	t.rng, t.src = rng.New(cfg.Tree.Seed + 2)
	t.root = t.newLeaf(0)
	return t
}

// Schema returns the stream schema the tree was built for.
func (t *Tree) Schema() stream.Schema { return t.schema }

func (t *Tree) newLeaf(depth int) *anode {
	return &anode{stats: hoeffding.NewNodeStats(&t.cfg.Tree, t.schema, t.rng, t.sc), depth: depth}
}

// Name implements model.Classifier.
func (t *Tree) Name() string { return "HT-Ada" }

// Learn implements model.Classifier.
func (t *Tree) Learn(b stream.Batch) {
	for i, x := range b.X {
		t.learnOne(x, b.Y[i])
	}
}

// learnOne routes the instance down the main tree, updates every node's
// error monitor with the tree's error on this instance, grows/updates
// alternates, and finally trains the leaf.
func (t *Tree) learnOne(x []float64, y int) {
	leaf := t.root.sortTo(x)
	mainErr := 0.0
	if leaf.stats.Predict(x) != y {
		mainErr = 1
	}

	changed := false
	cur := t.root
	for {
		if t.monitorNode(cur, x, y, mainErr) {
			changed = true
		}
		if cur.isLeaf() {
			break
		}
		if model.RouteSplit(x[cur.feature], cur.kind, cur.threshold, cur.mask, true) {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}

	if t.trainLeaf(leaf, x, y) {
		changed = true
	}
	t.slots.Touch(leaf)
	if changed {
		t.clearPath(x)
	}
}

// clearPath drops the frozen-structure cache along x's root-to-leaf
// path: every split and promotion of a learn step happens on it.
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

// release frees the leaf slots of n's subtree, which just left the
// served tree.
func (t *Tree) release(n *anode) {
	if n.isLeaf() {
		t.slots.Release(n)
		return
	}
	t.release(n.left)
	t.release(n.right)
}

// monitorNode feeds the error monitor of one node on the path, starts an
// alternate when change is detected, and manages an existing alternate.
// It reports whether the alternate was promoted over n's subtree.
func (t *Tree) monitorNode(n *anode, x []float64, y int, mainErr float64) bool {
	if n.errMon == nil {
		n.errMon = drift.NewADWIN(t.cfg.ADWINDelta)
	}
	changed := n.errMon.Add(mainErr)
	if changed && !n.isLeaf() && n.alt == nil {
		n.alt = t.newLeaf(n.depth)
		n.altErrMon = drift.NewADWIN(t.cfg.ADWINDelta)
		n.altTicks = 0
	}
	if n.alt == nil {
		return false
	}

	altLeaf := n.alt.sortTo(x)
	altErr := 0.0
	if altLeaf.stats.Predict(x) != y {
		altErr = 1
	}
	n.altErrMon.Add(altErr)
	t.trainLeaf(altLeaf, x, y)
	n.altTicks++

	if n.altTicks%t.cfg.CompareEvery != 0 {
		return false
	}
	wMain, wAlt := n.errMon.Width(), n.altErrMon.Width()
	if wMain < t.cfg.MinCompareWidth || wAlt < t.cfg.MinCompareWidth {
		return false
	}
	w := wMain
	if wAlt < w {
		w = wAlt
	}
	// 95%-confidence Hoeffding margin on the error-rate difference.
	bound := math.Sqrt(math.Log(20) / (2 * float64(w)))
	switch {
	case n.errMon.Mean()-n.altErrMon.Mean() > bound:
		// Alternate wins: promote it in place of the current subtree.
		t.release(n)
		n.feature, n.threshold = n.alt.feature, n.alt.threshold
		n.kind, n.mask = n.alt.kind, n.alt.mask
		n.left, n.right = n.alt.left, n.alt.right
		n.stats = n.alt.stats
		n.errMon = n.altErrMon
		n.alt, n.altErrMon, n.altTicks = nil, nil, 0
		t.prunes++
		return true
	case n.altErrMon.Mean()-n.errMon.Mean() > bound:
		// Alternate is measurably worse: discard it.
		n.alt, n.altErrMon, n.altTicks = nil, nil, 0
	}
	return false
}

// trainLeaf updates a leaf's statistics and applies the VFDT split rule.
// It reports whether the leaf split.
func (t *Tree) trainLeaf(leaf *anode, x []float64, y int) bool {
	leaf.stats.Observe(x, y, 1)
	if !leaf.stats.ShouldAttempt() {
		return false
	}
	if t.cfg.Tree.MaxDepth > 0 && leaf.depth >= t.cfg.Tree.MaxDepth {
		return false
	}
	cand, ok := leaf.stats.DecideSplit()
	if !ok {
		return false
	}
	t.slots.Release(leaf)
	leaf.feature, leaf.threshold = cand.Feature, cand.Threshold
	leaf.kind, leaf.mask = cand.Kind, cand.Mask
	leaf.left = t.newLeaf(leaf.depth + 1)
	leaf.right = t.newLeaf(leaf.depth + 1)
	if len(cand.Post) == 2 {
		leaf.left.stats.SeedChild(cand.Post[0])
		leaf.right.stats.SeedChild(cand.Post[1])
	}
	t.splits++
	// The node keeps its statistics: promoted alternates may turn it back
	// into a leaf later, and the error monitor lives on regardless.
	return true
}

// Predict implements model.Classifier using the main tree only.
func (t *Tree) Predict(x []float64) int {
	return t.root.sortTo(x).stats.Predict(x)
}

// Proba implements model.ProbabilisticClassifier.
func (t *Tree) Proba(x []float64, out []float64) []float64 {
	return t.root.sortTo(x).stats.Proba(x, out)
}

func countNodes(n *anode) (inner, leaves, depth int) {
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

// Complexity implements model.Classifier. HT-Ada has majority-class
// leaves, so only inner nodes count as splits; alternate subtrees are
// scaffolding and are not counted, matching the paper's "number of splits"
// of the deployed model.
func (t *Tree) Complexity() model.Complexity {
	inner, leaves, depth := countNodes(t.root)
	return model.TreeComplexity(inner, leaves, depth, model.LeafMajority, t.schema.NumFeatures, t.schema.NumClasses)
}

// freeze returns the immutable SnapNode of n's subtree, reusing the one
// cached at the last publish when no split or promotion has happened
// below n since. A leaf freezes to its slot.
func (t *Tree) freeze(n *anode) *model.SnapNode {
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
func servingClone(n *anode) model.LeafScorer { return n.stats.ServingClone() }

// Snapshot implements model.Snapshotter: an immutable serving copy of
// the deployed main tree (alternate subtrees are growth scaffolding and
// never serve predictions, so they are not captured). Publishing is
// copy-on-write: the structure is re-frozen only along the paths of
// splits and promotions since the previous Snapshot, and only the
// leaves trained since are re-cloned, into copies of the slot-table
// chunks holding them.
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

// Promotions returns how many alternate subtrees replaced their main
// subtree so far.
func (t *Tree) Promotions() int { return t.prunes }

// StructureVersion implements model.StructureVersioner with the
// lifetime count of leaf splits and alternate promotions.
func (t *Tree) StructureVersion() uint64 { return uint64(t.splits) + uint64(t.prunes) }

// String renders a compact shape description.
func (t *Tree) String() string {
	inner, leaves, depth := countNodes(t.root)
	return fmt.Sprintf("HT-Ada{inner: %d, leaves: %d, depth: %d, promotions: %d}", inner, leaves, depth, t.prunes)
}
