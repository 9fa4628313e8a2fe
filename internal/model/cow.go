package model

// Copy-on-write serving snapshots. A CowTree splits a published model in
// two immutable parts: the structure, a pointer-linked tree of SnapNodes
// whose leaves carry only a slot index, and the leaf predictors, a slot
// table indexed by those slots. Consecutive snapshots share every
// SnapNode whose subtree kept its shape, so the structure is re-frozen
// only along the path of a structural change (split, prune, replace,
// alternate promotion) — the structural-sharing counterpart of the
// paper's local updates. A batch that only trains leaves re-freezes no
// SnapNode at all: the publish copies the previous slot table's chunk
// index and the chunks holding the slots of the leaves the batch
// touched, and writes fresh clones into those slots; every other chunk
// is shared. A published table or chunk is never written again, so
// readers of an earlier snapshot keep answering from the leaves it
// captured.
//
// The live side is a LeafTable held by the learner. Each live node that
// can be a leaf embeds a LeafSlot; the learner reports three events —
// Touch when a served leaf's predictor changes, Release when a leaf
// leaves the served tree, Freeze when it freezes a leaf — and Publish
// builds the next table. Slots and queue flags are serving state only:
// checkpoints never carry them.

// SnapNode is one immutable node of a CowTree. Inner nodes carry the
// binary test (RouteSplit over Kind/Threshold/Mask) and two non-nil
// children; leaves carry the slot of their predictor in the CowTree's
// leaf table. The subtree counts are frozen at construction so a
// snapshot's Complexity never walks the shared structure.
type SnapNode struct {
	Feature   int
	Threshold float64
	// Kind selects the routing test; the zero value is the numeric
	// threshold test. Mask is the level bitset of a SplitSubset test.
	Kind SplitKind
	Mask uint64
	// Left and Right are non-nil exactly at inner nodes.
	Left, Right *SnapNode
	// Slot indexes the CowTree's leaf table at leaves.
	Slot int
	// Inner, Leaves and Depth describe the subtree rooted here; a leaf
	// is (0, 1, 0).
	Inner, Leaves, Depth int
}

// FreezeInner freezes one threshold-split inner node over two
// already-frozen children.
func FreezeInner(feature int, threshold float64, left, right *SnapNode) *SnapNode {
	return FreezeInnerSplit(feature, SplitThreshold, threshold, 0, left, right)
}

// FreezeInnerSplit freezes one inner node of any split kind over two
// already-frozen children.
func FreezeInnerSplit(feature int, kind SplitKind, threshold float64, mask uint64, left, right *SnapNode) *SnapNode {
	d := left.Depth
	if right.Depth > d {
		d = right.Depth
	}
	return &SnapNode{
		Feature:   feature,
		Threshold: threshold,
		Kind:      kind,
		Mask:      mask,
		Left:      left,
		Right:     right,
		Inner:     left.Inner + right.Inner + 1,
		Leaves:    left.Leaves + right.Leaves,
		Depth:     d + 1,
	}
}

// CowTree is an immutable serving snapshot built from shared SnapNodes
// and a leaf slot table. It implements Snapshot and ProbaSnapshot
// exactly like TreeSnapshot; only the construction differs.
type CowTree struct {
	ModelName string
	Comp      Complexity
	Root      *SnapNode
	// Leaves is the slot table the leaves of Root index, in chunks of
	// slotChunk slots: slot s is Leaves[s/slotChunk][s%slotChunk]. It is
	// never written after publication; slots no leaf of Root holds are
	// nil.
	Leaves []*[slotChunk]LeafScorer
	// NonFiniteLeft routes NaN/±Inf feature values to the left child
	// (see TreeSnapshot.NonFiniteLeft).
	NonFiniteLeft bool
}

// LeafFor routes x to its frozen leaf predictor.
func (t *CowTree) LeafFor(x []float64) LeafScorer {
	n := t.Root
	for n.Left != nil {
		if RouteSplit(x[n.Feature], n.Kind, n.Threshold, n.Mask, t.NonFiniteLeft) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return t.Leaf(n.Slot)
}

// Leaf returns the predictor in a slot of the leaf table.
func (t *CowTree) Leaf(slot int) LeafScorer {
	return t.Leaves[slot>>slotChunkBits][slot&(slotChunk-1)]
}

// Predict implements Snapshot.
func (t *CowTree) Predict(x []float64) int { return t.LeafFor(x).Predict(x) }

// Proba implements ProbaSnapshot.
func (t *CowTree) Proba(x []float64, out []float64) []float64 {
	return t.LeafFor(x).Proba(x, out)
}

// Complexity implements Snapshot with the complexity at capture time.
func (t *CowTree) Complexity() Complexity { return t.Comp }

// Name implements Snapshot.
func (t *CowTree) Name() string { return t.ModelName }

// LeafSlot is embedded in every live tree node that can be a served
// leaf. It holds the node's slot while the node is a frozen leaf of the
// served tree and whether its predictor is queued for the next publish.
// The zero value holds no slot.
type LeafSlot struct {
	id     int32 // slot+1; 0 while the node holds no slot
	queued bool
}

func (s *LeafSlot) leafSlot() *LeafSlot { return s }

// SlotHolder is a live node type that embeds LeafSlot.
type SlotHolder interface{ leafSlot() *LeafSlot }

// LeafTable is a learner's live side of its CowTree slot tables. Slots
// are handed out when Freeze first meets a leaf, so the first publish of
// a tree that has never published (a new tree, a restored one, a
// background tree swapped in) assigns every leaf a slot in one walk;
// later publishes assign slots only to leaves created since. Released
// slots are reused. The zero value is ready to use.
type LeafTable[N SlotHolder] struct {
	pub   []*[slotChunk]LeafScorer // the last published table; never written again
	size  int                      // slots handed out: the next table's length
	free  []int32                  // released slots, reused first
	freed []int32                  // released since the last publish, cleared in the next table
	queue []N                      // slotted leaves to re-clone at the next publish
}

// Touch queues n's predictor for the next publish after a learn pass
// changed it. A node without a slot is skipped: it is not served yet,
// and Freeze queues it when it gets one.
func (t *LeafTable[N]) Touch(n N) {
	if s := n.leafSlot(); s.id != 0 && !s.queued {
		s.queued = true
		t.queue = append(t.queue, n)
	}
}

// Release frees n's slot: n stopped being a served leaf (it split, or
// its subtree was pruned, replaced or promoted over). A no-op for a node
// without a slot.
func (t *LeafTable[N]) Release(n N) {
	s := n.leafSlot()
	if s.id == 0 {
		return
	}
	t.free = append(t.free, s.id-1)
	t.freed = append(t.freed, s.id-1)
	s.id = 0
}

// Freeze returns the frozen leaf of n, giving n a slot (and queueing its
// predictor) when it holds none.
func (t *LeafTable[N]) Freeze(n N) *SnapNode {
	s := n.leafSlot()
	if s.id == 0 {
		if k := len(t.free); k > 0 {
			s.id = t.free[k-1] + 1
			t.free = t.free[:k-1]
		} else {
			t.size++
			s.id = int32(t.size)
		}
		t.Touch(n)
	}
	return &SnapNode{Slot: int(s.id - 1), Leaves: 1}
}

// slotChunk is the copy-on-write unit of a slot table: a publish copies
// the chunk index and only the chunks holding a changed slot.
const (
	slotChunkBits = 4
	slotChunk     = 1 << slotChunkBits
)

// Publish returns the next slot table: the last one with the released
// slots cleared and the queued leaves re-cloned, sharing every chunk in
// which no slot changed. Call it after freezing the root, so every leaf
// of the new structure holds a slot.
func (t *LeafTable[N]) Publish(clone func(N) LeafScorer) []*[slotChunk]LeafScorer {
	chunks := (t.size + slotChunk - 1) / slotChunk
	if len(t.freed) == 0 && len(t.queue) == 0 && chunks == len(t.pub) {
		return t.pub
	}
	next := make([]*[slotChunk]LeafScorer, chunks)
	copy(next, t.pub)
	set := func(slot int32, l LeafScorer) {
		c := slot >> slotChunkBits
		if next[c] == nil {
			next[c] = new([slotChunk]LeafScorer)
		} else if int(c) < len(t.pub) && next[c] == t.pub[c] {
			own := *next[c]
			next[c] = &own
		}
		next[c][slot&(slotChunk-1)] = l
	}
	for _, i := range t.freed {
		set(i, nil)
	}
	t.freed = t.freed[:0]
	var none N
	for i, n := range t.queue {
		s := n.leafSlot()
		s.queued = false
		if s.id != 0 {
			set(s.id-1, clone(n))
		}
		t.queue[i] = none
	}
	t.queue = t.queue[:0]
	t.pub = next
	return next
}
