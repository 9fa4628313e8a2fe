package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/glm"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/stream"
)

// ChangeKind labels a structural change of the tree.
type ChangeKind int

const (
	// ChangeSplit records a leaf split via gain (3).
	ChangeSplit ChangeKind = iota
	// ChangeReplace records an inner-node split replacement via gain (4).
	ChangeReplace
	// ChangePrune records an inner node becoming a leaf via gain (5).
	ChangePrune
)

// String returns the display name of the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeSplit:
		return "split"
	case ChangeReplace:
		return "replace"
	case ChangePrune:
		return "prune"
	}
	return "?"
}

// ChangeEvent describes one structural change together with the loss-based
// gain that justified it — the paper's notion of interpretable model
// updates ("Why have you split this node at time step u?", Section I-A):
// every change is attributable to a measured reduction of the estimated
// negative log-likelihood, i.e. to a change of the approximate data
// concept.
type ChangeEvent struct {
	// Step is the Learn call (time step t) during which the change fired.
	Step int
	// Kind is the type of change.
	Kind ChangeKind
	// Depth is the depth of the changed node.
	Depth int
	// Feature and Threshold describe the new split (for prunes, the
	// removed one). SplitKind discriminates the test — for equality
	// tests Threshold holds the level code, for subset tests Mask holds
	// the level set.
	Feature   int
	Threshold float64
	SplitKind model.SplitKind
	Mask      uint64
	// Gain is the realised loss-based gain, already past the AIC
	// threshold of eq. (11).
	Gain float64
	// Threshold the gain had to clear (eq. 11).
	AICThreshold float64
}

// maxChangeLog bounds the retained change history.
const maxChangeLog = 4096

// Tree is the Dynamic Model Tree classifier.
type Tree struct {
	cfg     Config
	schema  stream.Schema
	root    *node
	rng     *rand.Rand
	rngSrc  *rng.Source // counted source behind rng, for checkpointing
	scratch *scratch    // reusable Learn-path workspace (never touched by reads)
	k       float64     // free parameters per simple model (AIC k)
	step    int

	splits, replaces, prunes int
	changes                  []ChangeEvent
}

// New returns an empty DMT for the schema. The root starts as a single
// leaf with a randomly initialised simple model (Section IV-E notes this
// random start only affects the root; all later models warm-start).
func New(cfg Config, schema stream.Schema) *Tree {
	cfg = cfg.withDefaults()
	t := &Tree{cfg: cfg, schema: schema}
	t.rng, t.rngSrc = rng.New(cfg.Seed + 5)
	t.root = t.newNode(0, nil)
	t.scratch = newScratch(t.root.mod.NumWeights(), maxSlots(&t.cfg, schema))
	t.k = float64(t.root.mod.FreeParams())
	return t
}

// newNode builds a node; parent != nil warm-starts the simple model with
// the parent's parameters (unless the ablation switch disables it).
func (t *Tree) newNode(depth int, parent glm.Model) *node {
	var mod glm.Model
	if parent != nil && !t.cfg.DisableWarmStart {
		mod = parent.Clone()
	} else {
		mod = glm.New(t.schema.NumFeatures, t.schema.NumClasses, t.rng)
	}
	m := t.schema.NumFeatures
	n := &node{
		mod:   mod,
		grad:  make([]float64, mod.NumWeights()),
		depth: depth,
		idx:   newCandIndex(m, mod.NumWeights(), maxSlots(&t.cfg, t.schema)),
	}
	return n
}

// Name implements model.Classifier.
func (t *Tree) Name() string { return "DMT" }

// Schema returns the stream schema the tree was built for.
func (t *Tree) Schema() stream.Schema { return t.schema }

// Config returns the effective (defaulted) configuration.
func (t *Tree) Config() Config { return t.cfg }

// Learn implements model.Classifier: one prequential time step. The batch
// is forwarded down the tree, every simple model on the path is updated,
// and structural checks run bottom-up (Algorithm 1).
func (t *Tree) Learn(b stream.Batch) {
	if b.Len() == 0 {
		return
	}
	t.step++
	t.update(t.root, b)
}

// update recursively processes one node: statistics first (top-down),
// then children, then this node's structural decision (bottom-up).
func (t *Tree) update(n *node, b stream.Batch) {
	// Any node that receives rows may change (model drift at least,
	// structure at most), so its frozen-subtree cache is stale. The nodes
	// a structural change touches are exactly the visited ones: splits and
	// replaces fire at n itself, prunes drop the (also invalidated)
	// subtree below n.
	n.snap = nil
	inner := !n.isLeaf()
	if !inner || !t.cfg.DisableInnerUpdates {
		t.updateStats(n, b)
	}

	if inner {
		left, right := t.partition(b, n)
		if left.Len() > 0 {
			t.update(n.left, left)
		}
		if right.Len() > 0 {
			t.update(n.right, right)
		}
		if !t.cfg.DisablePruning && !t.cfg.DisableInnerUpdates {
			t.tryRestructure(n)
		}
		return
	}
	t.trySplit(n)
}

// partition splits a batch by the node's test without copying rows. The
// row-pointer slices come from the per-depth scratch ladder — the left
// and right halves of depth d stay valid while the subtrees (depths > d)
// repartition — so the recursion reuses two index slices per level
// instead of growing fresh ones every level every batch.
func (t *Tree) partition(b stream.Batch, n *node) (left, right stream.Batch) {
	lv := t.scratch.level(n.depth)
	lv.leftX, lv.leftY = lv.leftX[:0], lv.leftY[:0]
	lv.rightX, lv.rightY = lv.rightX[:0], lv.rightY[:0]
	for i, x := range b.X {
		if model.RouteSplit(x[n.feature], n.kind, n.threshold, n.mask, true) {
			lv.leftX = append(lv.leftX, x)
			lv.leftY = append(lv.leftY, b.Y[i])
		} else {
			lv.rightX = append(lv.rightX, x)
			lv.rightY = append(lv.rightY, b.Y[i])
		}
	}
	return stream.Batch{X: lv.leftX, Y: lv.leftY}, stream.Batch{X: lv.rightX, Y: lv.rightY}
}

// trySplit applies gain (3) with the AIC threshold of eq. (11) at a leaf:
// split when G >= k - log(eps), where k is the free-parameter count of one
// simple model (two child models replace one leaf model).
func (t *Tree) trySplit(n *node) {
	if t.cfg.MaxDepth > 0 && n.depth >= t.cfg.MaxDepth {
		return
	}
	c, ok := t.bestCandidate(n, n.loss, false)
	if !ok {
		return
	}
	thr := t.k + t.cfg.logEps()
	if c.gain < thr {
		return
	}
	t.split(n, c, thr)
}

// split turns a leaf into an inner node with two warm-started children and
// restarts the node's epoch so I_t = ∪ J_t holds for the new family.
func (t *Tree) split(n *node, c splitChoice, thr float64) {
	n.feature, n.threshold, n.kind, n.mask = c.feature, c.threshold, c.kind, c.mask
	n.left = t.newNode(n.depth+1, n.mod)
	n.right = t.newNode(n.depth+1, n.mod)
	n.resetEpoch()
	t.splits++
	t.logChange(ChangeEvent{
		Step: t.step, Kind: ChangeSplit, Depth: n.depth,
		Feature: n.feature, Threshold: n.threshold, SplitKind: n.kind, Mask: n.mask,
		Gain: c.gain, AICThreshold: thr,
	})
}

// tryRestructure applies gains (4) and (5) at an inner node. With the
// gradient approximation of eq. (7) the loss is additive, so gain (4) of
// any candidate always dominates gain (5); the paper's "retain the
// smaller tree" tie-break (Lemma 2) therefore compares the AIC-adjusted
// gains: prune wins unless the alternate split's gradient improvement
// exceeds the parameter cost k of the extra model.
func (t *Tree) tryRestructure(n *node) {
	if n.n < t.cfg.RestructureGrace {
		return // children have not had time to realise their advantage
	}
	leafLoss, leaves := subtreeLeafStats(n)
	subLeaves := float64(leaves)

	gain5 := leafLoss - n.loss
	thr5 := (1-subLeaves)*t.k + t.cfg.logEps()
	prunePass := gain5 >= thr5

	c, ok4 := t.bestCandidate(n, leafLoss, true)
	thr4 := (2-subLeaves)*t.k + t.cfg.logEps()
	replacePass := ok4 && c.gain >= thr4

	switch {
	case prunePass && replacePass:
		// Compare AIC-adjusted gains; equality favours the smaller tree.
		if gain5-(1-subLeaves)*t.k >= c.gain-(2-subLeaves)*t.k {
			t.prune(n, gain5, thr5)
		} else {
			t.replace(n, c, thr4)
		}
	case prunePass:
		t.prune(n, gain5, thr5)
	case replacePass:
		t.replace(n, c, thr4)
	}
}

// prune removes the subtree below n, making it a leaf again. The node
// keeps its accumulators and candidates: they describe exactly the data
// that reached it, which remains true for the new leaf.
func (t *Tree) prune(n *node, gain, thr float64) {
	ev := ChangeEvent{
		Step: t.step, Kind: ChangePrune, Depth: n.depth,
		Feature: n.feature, Threshold: n.threshold, SplitKind: n.kind, Mask: n.mask,
		Gain: gain, AICThreshold: thr,
	}
	n.left, n.right = nil, nil
	t.prunes++
	t.logChange(ev)
}

// replace swaps the subtree below n for a new split with two fresh
// warm-started leaves and restarts the node's epoch.
func (t *Tree) replace(n *node, c splitChoice, thr float64) {
	n.feature, n.threshold, n.kind, n.mask = c.feature, c.threshold, c.kind, c.mask
	n.left = t.newNode(n.depth+1, n.mod)
	n.right = t.newNode(n.depth+1, n.mod)
	n.resetEpoch()
	t.replaces++
	t.logChange(ChangeEvent{
		Step: t.step, Kind: ChangeReplace, Depth: n.depth,
		Feature: n.feature, Threshold: n.threshold, SplitKind: n.kind, Mask: n.mask,
		Gain: c.gain, AICThreshold: thr,
	})
}

func (t *Tree) logChange(ev ChangeEvent) {
	if len(t.changes) >= maxChangeLog {
		copy(t.changes, t.changes[1:])
		t.changes = t.changes[:maxChangeLog-1]
	}
	t.changes = append(t.changes, ev)
}

// sortTo routes x to its leaf via the shared model.RouteSplit predicate.
// Non-finite feature values (NaN, ±Inf) deterministically route left,
// matching FIMT-DD and the serving snapshots — the candidate machinery
// skips non-finite values, so no test ever separates them, and routing
// them left keeps learn and predict paths consistent. Unseen categorical
// levels route right, equally deterministically.
func (t *Tree) sortTo(x []float64) *node {
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

// Predict implements model.Classifier using the leaf's simple model.
func (t *Tree) Predict(x []float64) int { return t.sortTo(x).mod.Predict(x) }

// Proba implements model.ProbabilisticClassifier.
func (t *Tree) Proba(x []float64, out []float64) []float64 {
	return t.sortTo(x).mod.Proba(x, out)
}

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

// Complexity implements model.Classifier with model leaves.
func (t *Tree) Complexity() model.Complexity {
	inner, leaves, depth := countNodes(t.root)
	return model.TreeComplexity(inner, leaves, depth, model.LeafModel, t.schema.NumFeatures, t.schema.NumClasses)
}

// freeze returns the immutable SnapNode of n's subtree, reusing the one
// cached at the last publish when no learn path has visited n since.
// Leaf predictors are cloned at freeze time, so the snapshot shares no
// mutable state with the live tree.
func freeze(n *node) *model.SnapNode {
	if n.snap != nil {
		return n.snap
	}
	if n.isLeaf() {
		n.snap = model.FreezeLeaf(n.mod.Clone())
	} else {
		n.snap = model.FreezeInnerSplit(n.feature, n.kind, n.threshold, n.mask, freeze(n.left), freeze(n.right))
	}
	return n.snap
}

// Snapshot implements model.Snapshotter: an immutable serving copy of
// the current tree structure with cloned leaf simple models. Inner-node
// models, candidate indices and scratch are learn-path state and are not
// captured — the snapshot serves Predict/Proba/Complexity only.
//
// Publishing is copy-on-write: subtrees untouched since the previous
// Snapshot call are shared with it via the per-node freeze cache, so a
// publish after one local change costs O(changed path), not O(tree).
func (t *Tree) Snapshot() model.Snapshot {
	root := freeze(t.root)
	return &model.CowTree{
		ModelName:     t.Name(),
		Comp:          model.TreeComplexity(root.Inner, root.Leaves, root.Depth, model.LeafModel, t.schema.NumFeatures, t.schema.NumClasses),
		Root:          root,
		NonFiniteLeft: true,
	}
}

// Changes returns the retained structural-change history (oldest first).
func (t *Tree) Changes() []ChangeEvent {
	out := make([]ChangeEvent, len(t.changes))
	copy(out, t.changes)
	return out
}

// Revisions returns the lifetime counts of splits, replacements and
// prunes.
func (t *Tree) Revisions() (splits, replaces, prunes int) {
	return t.splits, t.replaces, t.prunes
}

// StructureVersion implements model.StructureVersioner: the lifetime
// count of structural changes, which the serving tier's envelope
// versions follow.
func (t *Tree) StructureVersion() uint64 {
	return uint64(t.splits) + uint64(t.replaces) + uint64(t.prunes)
}

// CheckpointParams implements registry.ParamsReporter for the
// self-describing checkpoint envelope.
func (t *Tree) CheckpointParams() registry.Params {
	return registry.Params{
		Seed:             t.cfg.Seed,
		LearningRate:     t.cfg.LearningRate,
		Epsilon:          t.cfg.Epsilon,
		CandidateFactor:  t.cfg.CandidateFactor,
		ReplacementRate:  t.cfg.ReplacementRate,
		RestructureGrace: t.cfg.RestructureGrace,
		L1:               t.cfg.L1,
		MaxDepth:         t.cfg.MaxDepth,
	}
}

// LeafWeights returns, for the leaf that x routes to, the simple model's
// per-feature weights of the given class — the local feature-based
// explanation the paper highlights as an advantage of Model Trees
// (Section I-C). For binary targets pass class 1.
func (t *Tree) LeafWeights(x []float64, class int) []float64 {
	leaf := t.sortTo(x)
	switch m := leaf.mod.(type) {
	case *glm.Logit:
		return m.FeatureWeights()
	case *glm.Softmax:
		return m.ClassWeights(class)
	}
	return nil
}

// describeTest renders one split test against the schema: the numeric
// threshold form, the equality form with the level's name, or the subset
// form with the mask's level names.
func (t *Tree) describeTest(feature int, kind model.SplitKind, threshold float64, mask uint64) string {
	return describeTest(t.schema, feature, kind, threshold, mask)
}

func describeTest(schema stream.Schema, feature int, kind model.SplitKind, threshold float64, mask uint64) string {
	name := schema.FeatureName(feature)
	switch kind {
	case model.SplitEquality:
		return fmt.Sprintf("%s == %s", name, schema.LevelName(feature, int(threshold)))
	case model.SplitSubset:
		var sb strings.Builder
		sb.WriteString(name)
		sb.WriteString(" in {")
		for i, lv := range model.MaskLevels(mask) {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(schema.LevelName(feature, lv))
		}
		sb.WriteString("}")
		return sb.String()
	default:
		return fmt.Sprintf("%s <= %.4g", name, threshold)
	}
}

// Test renders the event's split test against a schema — `x3 <= 0.52`,
// `cat == blue`, or `cat in {red, blue}` — so change-log renderers show
// the same condition Describe prints in the tree.
func (ev ChangeEvent) Test(schema stream.Schema) string {
	return describeTest(schema, ev.Feature, ev.SplitKind, ev.Threshold, ev.Mask)
}

// Describe renders the tree structure with split conditions and leaf
// sizes, a human-readable view of the deployed model.
func (t *Tree) Describe() string {
	var sb strings.Builder
	var walk func(n *node, prefix string, label string)
	walk = func(n *node, prefix, label string) {
		if n.isLeaf() {
			fmt.Fprintf(&sb, "%s%sleaf[n=%.0f, loss=%.2f]\n", prefix, label, n.n, n.loss)
			return
		}
		fmt.Fprintf(&sb, "%s%s%s  [n=%.0f]\n", prefix, label, t.describeTest(n.feature, n.kind, n.threshold, n.mask), n.n)
		walk(n.left, prefix+"  ", "Y: ")
		walk(n.right, prefix+"  ", "N: ")
	}
	walk(t.root, "", "")
	return sb.String()
}

// DebugRoot reports the root's best-candidate gain against its split
// threshold — diagnostic output used by tests and tooling.
func (t *Tree) DebugRoot() string {
	n := t.root
	c, ok := t.bestCandidate(n, n.loss, false)
	if !ok {
		return fmt.Sprintf("root{n=%.0f loss=%.1f cands=%d no-gain}", n.n, n.loss, n.idx.size())
	}
	test := fmt.Sprintf("x%d<=%.3g", c.feature, c.threshold)
	switch c.kind {
	case model.SplitEquality:
		test = fmt.Sprintf("x%d==%g", c.feature, c.threshold)
	case model.SplitSubset:
		test = fmt.Sprintf("x%d in %v", c.feature, model.MaskLevels(c.mask))
	}
	return fmt.Sprintf("root{n=%.0f loss=%.1f cands=%d best=%s gain=%.2f thr=%.2f}",
		n.n, n.loss, n.idx.size(), test, c.gain, t.k+t.cfg.logEps())
}

// String renders a compact shape description.
func (t *Tree) String() string {
	inner, leaves, depth := countNodes(t.root)
	return fmt.Sprintf("DMT{inner: %d, leaves: %d, depth: %d, splits: %d, replaces: %d, prunes: %d}",
		inner, leaves, depth, t.splits, t.replaces, t.prunes)
}
