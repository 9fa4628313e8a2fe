// Package ensemble implements the two Hoeffding-tree ensembles of the
// paper's comparison (Section VI-C): an Adaptive Random Forest [42] and a
// Leveraging Bagging ensemble [27], both with 3 VFDT weak learners
// configured like the stand-alone VFDT (MC) model.
//
// Learning is member-major: every member owns its trees, detectors and
// RNG stream, processes each incoming batch independently, and any
// cross-member coupling (Leveraging Bagging's worst-member reset) happens
// in a serial step after the batch. Because member state is disjoint,
// Learn can fan the members out across a bounded worker pool
// (Config.Workers) and parallel runs are byte-identical to sequential
// runs under a fixed Config.Seed — the same guarantee eval.Runner gives
// across experiment cells.
package ensemble

import (
	"math"
	"math/rand"

	"repro/internal/drift"
	"repro/internal/hoeffding"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// poissonNormalCutoff is where poisson switches from Knuth's product
// method to a normal approximation. Knuth's loop runs ~lambda iterations,
// and its exp(-lambda) floor underflows to zero near lambda ≈ 746 — the
// loop would then spin until the running product denormal-underflows.
const poissonNormalCutoff = 30

// poissonSampler draws Poisson(lambda) variates with the lambda-dependent
// constants precomputed — the ensembles draw once per member-instance, so
// re-deriving exp(-lambda) per draw was measurable. The zero-size value
// is read-only after construction and safe to share across member
// goroutines.
type poissonSampler struct {
	lambda  float64
	expNegL float64 // exp(-lambda); unused above the normal cutoff
	sqrtL   float64
}

func newPoissonSampler(lambda float64) poissonSampler {
	s := poissonSampler{lambda: lambda}
	if lambda > 0 {
		s.sqrtL = math.Sqrt(lambda)
		if lambda < poissonNormalCutoff {
			s.expNegL = math.Exp(-lambda)
		}
	}
	return s
}

// draw samples Poisson(lambda): Knuth's product method for small lambda,
// a rounded N(lambda, lambda) draw (clamped at zero) above the cutoff,
// where the approximation error is far below the sampling noise.
func (s poissonSampler) draw(rng *rand.Rand) int {
	if s.lambda <= 0 {
		return 0
	}
	if s.lambda >= poissonNormalCutoff {
		k := math.Round(s.lambda + s.sqrtL*rng.NormFloat64())
		if k < 0 {
			return 0
		}
		return int(k)
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= s.expNegL {
			return k
		}
		k++
	}
}

// poisson draws one Poisson(lambda) variate. Hot paths hold a
// poissonSampler instead.
func poisson(rng *rand.Rand, lambda float64) int {
	return newPoissonSampler(lambda).draw(rng)
}

// Config holds the shared ensemble hyperparameters.
type Config struct {
	// Size is the number of weak learners (paper: 3).
	Size int
	// Lambda is the Poisson weighting intensity (customary 6).
	Lambda float64
	// Tree configures the weak learners (VFDT MC per the paper).
	Tree hoeffding.Config
	// WarnDelta and DriftDelta are the ADWIN confidences of the warning
	// and drift detectors (ARF defaults 0.01 and 0.001). Leveraging
	// Bagging has no warning stage and uses DriftDelta alone for its
	// member monitors (default 0.002, the customary ADWIN delta).
	WarnDelta  float64
	DriftDelta float64
	// Workers bounds the member-learning worker pool: Learn fans the
	// members across min(Workers, Size) goroutines. 0 uses GOMAXPROCS;
	// 1 learns sequentially. The parallel schedule never changes
	// results (see the package comment).
	Workers int
	// Seed drives the Poisson sampling and subspace selection. Each
	// member derives its own RNG stream from it.
	Seed int64
}

// Default ADWIN confidences: ARF's warning/drift detector pair and
// Leveraging Bagging's single member monitor.
const (
	defaultWarnDelta   = 0.01
	defaultARFDrift    = 0.001
	defaultLevBagDrift = 0.002
)

// withDefaults fills unset fields; driftDefault is the ensemble's own
// DriftDelta default (the two ensembles differ).
func (c Config) withDefaults(driftDefault float64) Config {
	if c.Size <= 0 {
		c.Size = 3
	}
	if c.Lambda <= 0 {
		c.Lambda = 6
	}
	if c.WarnDelta <= 0 {
		c.WarnDelta = defaultWarnDelta
	}
	if c.DriftDelta <= 0 {
		c.DriftDelta = driftDefault
	}
	c.Tree.LeafMode = hoeffding.MajorityClass
	c.Tree = c.Tree.WithDefaults()
	return c
}

// voteSlice returns a zeroed vote accumulator of length c, backed by the
// caller's stack buffer when it fits (see voteBufClasses).
func voteSlice(buf *[voteBufClasses]float64, c int) []float64 {
	if c <= voteBufClasses {
		return buf[:c]
	}
	return make([]float64, c)
}

// voteBufClasses is the class count served by the stack-allocated voting
// buffer of Predict. Predict runs under a Scorer's read lock with any
// number of concurrent readers, so it cannot reuse ensemble-owned
// scratch; a stack buffer keeps it both race-free and allocation-free.
const voteBufClasses = 16

// minVote is the floor vote weight of a member whose recent accuracy is
// unknown or worse than chance.
const minVote = 0.01

// minVoteEvidence is the observation weight a member must accumulate
// since its last swap before its accuracy estimate drives its vote.
const minVoteEvidence = 10

// arfMember is one Adaptive Random Forest learner with its detectors,
// optional background tree, private RNG stream and post-swap accuracy
// tally. All of it is member-private: Learn goroutines never share state.
type arfMember struct {
	id         int
	rng        *rand.Rand
	src        *rng.Source // counted source behind rng, for checkpointing
	tree       *hoeffding.Tree
	background *hoeffding.Tree
	warn       *drift.ADWIN
	det        *drift.ADWIN
	swaps      int
	// retiredVersion accumulates the structure versions of replaced
	// member trees, keeping the ensemble's StructureVersion monotone: a
	// fresh tree restarts its own split count at zero, so without the
	// carry-over a swap could leave the summed version unchanged (or
	// lower) and replicas following the version would miss the event.
	retiredVersion uint64
	// Error tally since the last swap; drives the vote weight so a
	// freshly swapped (largely untrained) member carries almost no vote
	// until it re-earns it.
	errSince  float64
	seenSince float64
}

// voteWeight returns one minus the member's error rate since its last
// swap, floored at minVote; members without enough post-swap evidence
// also vote at the floor.
func (m *arfMember) voteWeight() float64 {
	if m.seenSince < minVoteEvidence {
		return minVote
	}
	w := 1 - m.errSince/m.seenSince
	if w < minVote {
		w = minVote
	}
	return w
}

// ARF is the Adaptive Random Forest: Poisson(lambda) online bagging,
// per-leaf random feature subspaces of size round(sqrt(m))+1, a warning
// detector that starts a background tree, and a drift detector that swaps
// it in.
type ARF struct {
	cfg     Config
	schema  stream.Schema
	members []*arfMember
	pois    poissonSampler
}

// NewARF returns an Adaptive Random Forest for the schema.
func NewARF(cfg Config, schema stream.Schema) *ARF {
	cfg = cfg.withDefaults(defaultARFDrift)
	if cfg.Tree.SubspaceSize <= 0 {
		cfg.Tree.SubspaceSize = int(math.Round(math.Sqrt(float64(schema.NumFeatures)))) + 1
	}
	a := &ARF{cfg: cfg, schema: schema, pois: newPoissonSampler(cfg.Lambda)}
	for i := 0; i < cfg.Size; i++ {
		m := &arfMember{
			id:   i,
			tree: a.newTree(int64(i)),
			warn: drift.NewADWIN(cfg.WarnDelta),
			det:  drift.NewADWIN(cfg.DriftDelta),
		}
		m.rng, m.src = rng.New(cfg.Seed*31 + int64(i)*1009 + 6)
		a.members = append(a.members, m)
	}
	return a
}

// Schema returns the stream schema the ensemble was built for.
func (a *ARF) Schema() stream.Schema { return a.schema }

func (a *ARF) newTree(salt int64) *hoeffding.Tree {
	cfg := a.cfg.Tree
	cfg.Seed = a.cfg.Seed*31 + salt
	return hoeffding.New(cfg, a.schema)
}

// Name implements model.Classifier.
func (a *ARF) Name() string { return "Forest Ens." }

// Learn implements model.Classifier, fanning the members across the
// worker pool; each member consumes the whole batch with its own RNG
// stream, so the result does not depend on Workers.
func (a *ARF) Learn(b stream.Batch) {
	forEachMember(a.cfg.Workers, len(a.members), func(i int) {
		m := a.members[i]
		for r, x := range b.X {
			a.learnMemberOne(m, x, b.Y[r])
		}
	})
}

// learnMemberOne advances one member by one instance: a Poisson-weighted
// test-then-train tree update (one traversal via PredictLearnOne in the
// common no-background case), then the pre-learn error signal feeds both
// detectors. Detector-triggered replacements take effect from the next
// instance. Steady state allocates nothing.
func (a *ARF) learnMemberOne(m *arfMember, x []float64, y int) {
	w := a.pois.draw(m.rng)
	var pred int
	switch {
	case w > 0 && m.background == nil:
		pred = m.tree.PredictLearnOne(x, y, float64(w))
	case w > 0:
		pred = m.tree.Predict(x)
		m.tree.LearnOne(x, y, float64(w))
		m.background.LearnOne(x, y, float64(w))
	default:
		pred = m.tree.Predict(x)
	}
	errSignal := 0.0
	if pred != y {
		errSignal = 1
	}
	m.errSince += errSignal
	m.seenSince++
	if m.warn.Add(errSignal) && m.background == nil {
		m.background = a.newTree(int64(m.id)*101 + int64(m.warn.NumDetections()))
	}
	if m.det.Add(errSignal) {
		m.retiredVersion += m.tree.StructureVersion()
		if m.background != nil {
			m.tree, m.background = m.background, nil
		} else {
			m.tree = a.newTree(int64(m.id)*131 + int64(m.det.NumDetections()))
		}
		m.warn.Reset()
		m.det.Reset()
		m.swaps++
		m.errSince, m.seenSince = 0, 0
	}
}

// Predict implements model.Classifier with accuracy-weighted voting: each
// member votes with one minus its monitored error rate since its last
// swap (so freshly swapped members barely vote until they re-earn
// weight). Votes accumulate in a stack buffer — see voteBufClasses.
func (a *ARF) Predict(x []float64) int {
	var buf [voteBufClasses]float64
	votes := voteSlice(&buf, a.schema.NumClasses)
	for _, m := range a.members {
		votes[m.tree.Predict(x)] += m.voteWeight()
	}
	return argmax(votes)
}

// Complexity implements model.Classifier, summing the deployed members.
func (a *ARF) Complexity() model.Complexity {
	var total model.Complexity
	for _, m := range a.members {
		total = total.Add(m.tree.Complexity())
	}
	return total
}

// ensembleSnapshot is the frozen serving view of either ensemble: member
// tree snapshots plus the vote weights captured at publish time.
type ensembleSnapshot struct {
	name    string
	comp    model.Complexity
	trees   []model.Snapshot
	weights []float64
	classes int
}

// Predict votes the frozen members with their captured weights, through
// the same stack buffer as the live ensembles.
func (s *ensembleSnapshot) Predict(x []float64) int {
	var buf [voteBufClasses]float64
	votes := voteSlice(&buf, s.classes)
	for i, t := range s.trees {
		votes[t.Predict(x)] += s.weights[i]
	}
	return argmax(votes)
}

// Complexity implements model.Snapshot with the capture-time complexity.
func (s *ensembleSnapshot) Complexity() model.Complexity { return s.comp }

// Name implements model.Snapshot.
func (s *ensembleSnapshot) Name() string { return s.name }

// Snapshot implements model.Snapshotter: frozen member trees voting with
// the error-since-swap weights at capture time. Sharing is
// member-granular: each member tree publishes copy-on-write, so only the
// subtrees that member's learning touched since the last publish
// re-freeze, and the capture-time complexity is summed from the frozen
// members' O(1) counts instead of re-walking every live tree.
func (a *ARF) Snapshot() model.Snapshot {
	s := &ensembleSnapshot{name: a.Name(), classes: a.schema.NumClasses}
	for _, m := range a.members {
		ts := m.tree.Snapshot()
		s.trees = append(s.trees, ts)
		s.weights = append(s.weights, m.voteWeight())
		s.comp = s.comp.Add(ts.Complexity())
	}
	return s
}

// Swaps returns the number of member replacements so far.
func (a *ARF) Swaps() int {
	total := 0
	for _, m := range a.members {
		total += m.swaps
	}
	return total
}

// StructureVersion implements model.StructureVersioner: the deployed
// member trees' structure versions plus the member swap count, with
// replaced trees' final versions carried over (retiredVersion) so the
// counter never decreases and every swap moves it.
func (a *ARF) StructureVersion() uint64 {
	v := uint64(a.Swaps())
	for _, m := range a.members {
		v += m.retiredVersion + m.tree.StructureVersion()
	}
	return v
}

// lbMember is one Leveraging Bagging learner: a full-feature VFDT, its
// ADWIN monitor, a private RNG stream and the batch-local detection flag
// consumed by the serial coupling step.
type lbMember struct {
	id    int
	rng   *rand.Rand
	src   *rng.Source // counted source behind rng, for checkpointing
	tree  *hoeffding.Tree
	mon   *drift.ADWIN
	fired bool
	// retiredVersion carries replaced trees' structure versions so the
	// ensemble version stays monotone across resets (see arfMember).
	retiredVersion uint64
}

// LevBag is the Leveraging Bagging ensemble: Poisson(lambda) input
// weighting with one ADWIN per member; when a member's ADWIN flags
// change, the member with the worst monitored error is reset (at batch
// granularity — see Learn).
type LevBag struct {
	cfg     Config
	schema  stream.Schema
	members []*lbMember
	pois    poissonSampler
	resets  int
}

// NewLevBag returns a Leveraging Bagging ensemble for the schema. The
// member monitors use Config.DriftDelta, defaulting to ADWIN's customary
// 0.002 when unset.
func NewLevBag(cfg Config, schema stream.Schema) *LevBag {
	cfg = cfg.withDefaults(defaultLevBagDrift)
	l := &LevBag{cfg: cfg, schema: schema, pois: newPoissonSampler(cfg.Lambda)}
	for i := 0; i < cfg.Size; i++ {
		m := &lbMember{
			id:   i,
			tree: l.newTree(int64(i)),
			mon:  drift.NewADWIN(cfg.DriftDelta),
		}
		m.rng, m.src = rng.New(cfg.Seed*37 + int64(i)*1013 + 7)
		l.members = append(l.members, m)
	}
	return l
}

// Schema returns the stream schema the ensemble was built for.
func (l *LevBag) Schema() stream.Schema { return l.schema }

func (l *LevBag) newTree(salt int64) *hoeffding.Tree {
	cfg := l.cfg.Tree
	cfg.SubspaceSize = 0 // leveraging bagging uses all features
	cfg.Seed = l.cfg.Seed*37 + salt
	return hoeffding.New(cfg, l.schema)
}

// Name implements model.Classifier.
func (l *LevBag) Name() string { return "Bagging Ens." }

// Learn implements model.Classifier: members consume the batch
// independently on the worker pool, then a serial coupling step applies
// the Leveraging Bagging adaptation — when any member's ADWIN fired
// during the batch, the member with the highest monitored error estimate
// is reset (Bifet et al. [27], applied at batch granularity so member
// learning stays embarrassingly parallel).
func (l *LevBag) Learn(b stream.Batch) {
	forEachMember(l.cfg.Workers, len(l.members), func(i int) {
		m := l.members[i]
		for r, x := range b.X {
			l.learnMemberOne(m, x, b.Y[r])
		}
	})
	fired := false
	for _, m := range l.members {
		if m.fired {
			fired = true
			m.fired = false
		}
	}
	if !fired {
		return
	}
	worst := 0
	for i, m := range l.members {
		if m.mon.Mean() > l.members[worst].mon.Mean() {
			worst = i
		}
	}
	l.resets++
	l.members[worst].retiredVersion += l.members[worst].tree.StructureVersion()
	l.members[worst].tree = l.newTree(int64(worst)*151 + int64(l.resets))
	l.members[worst].mon.Reset()
}

// learnMemberOne advances one member by one instance: a Poisson-weighted
// test-then-train update in one traversal, with the pre-learn error
// feeding the member's monitor. Steady state allocates nothing.
func (l *LevBag) learnMemberOne(m *lbMember, x []float64, y int) {
	w := l.pois.draw(m.rng)
	var pred int
	if w > 0 {
		pred = m.tree.PredictLearnOne(x, y, float64(w))
	} else {
		pred = m.tree.Predict(x)
	}
	errSignal := 0.0
	if pred != y {
		errSignal = 1
	}
	if m.mon.Add(errSignal) {
		m.fired = true
	}
}

// Predict implements model.Classifier by majority vote, accumulated in a
// stack buffer (see voteBufClasses) so concurrent readers stay safe and
// allocation-free.
func (l *LevBag) Predict(x []float64) int {
	var buf [voteBufClasses]float64
	votes := voteSlice(&buf, l.schema.NumClasses)
	for _, m := range l.members {
		votes[m.tree.Predict(x)]++
	}
	return argmax(votes)
}

// Complexity implements model.Classifier, summing the members.
func (l *LevBag) Complexity() model.Complexity {
	var total model.Complexity
	for _, m := range l.members {
		total = total.Add(m.tree.Complexity())
	}
	return total
}

// Snapshot implements model.Snapshotter: frozen member trees under
// unweighted majority vote, like the live ensemble. Member trees publish
// copy-on-write (see ARF.Snapshot), and the capture-time complexity sums
// the frozen members' O(1) counts.
func (l *LevBag) Snapshot() model.Snapshot {
	s := &ensembleSnapshot{name: l.Name(), classes: l.schema.NumClasses}
	for _, m := range l.members {
		ts := m.tree.Snapshot()
		s.trees = append(s.trees, ts)
		s.weights = append(s.weights, 1)
		s.comp = s.comp.Add(ts.Complexity())
	}
	return s
}

// Resets returns the number of member resets so far.
func (l *LevBag) Resets() int { return l.resets }

// StructureVersion implements model.StructureVersioner: the member
// trees' structure versions plus the reset count, with replaced trees'
// final versions carried over so the counter never decreases.
func (l *LevBag) StructureVersion() uint64 {
	v := uint64(l.resets)
	for _, m := range l.members {
		v += m.retiredVersion + m.tree.StructureVersion()
	}
	return v
}

func argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
