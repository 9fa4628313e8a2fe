package repro

import (
	"io"

	"repro/internal/eval"
	"repro/internal/race"
)

// Online model racing: repro.Race trains several registered learners
// ("arms") on the same stream, tracks each arm's prequential error in
// an ADWIN-managed sliding window, and serves every prediction from the
// current leader through a wait-free atomic snapshot. When drift fires
// on the leader's error stream, the race windows reset and the fleet
// re-competes under the new concept — on drifting streams the racer
// tracks whichever arm wins each regime instead of committing to one
// model up front.
//
// The Racer is a full serving Scorer: it slots unchanged into
// Prequential, Save/Load (a "RACE"-framed envelope sequence), the HTTP
// serving tier (dmtserve -model 'race:dmt,vfdt,arf'; /statusz shows the
// per-arm scoreboard) and checkpoint-resume.
type (
	// Racer is the racing meta-scorer. See race.Racer.
	Racer = race.Racer
	// RaceArm is one competitor: a model name (aliases like "dmt",
	// "vfdt", "arf" resolve) plus optional per-arm options.
	RaceArm = race.Arm
	// RaceStatus is the scoreboard exported by (*Racer).RaceStatus and
	// embedded in the serving tier's /statusz document.
	RaceStatus = race.Status
	// RaceArmStatus is one arm's scoreboard row.
	RaceArmStatus = race.ArmStatus
	// RaceSwapEvent is one leader change in the racer's timeline.
	RaceSwapEvent = race.SwapEvent
	// RaceOption tunes Race.
	RaceOption func(*race.Config)
)

// IsRaceSpec reports whether a model spec names a race lineup
// ("race:dmt,vfdt,arf") — the grammar repro.Serve and dmtserve accept
// wherever a registered model name is expected.
func IsRaceSpec(spec string) bool { return race.IsSpec(spec) }

// Arms builds a race lineup from model names. Names resolve like
// registry names plus CLI aliases: "dmt", "vfdt", "arf", "levbag",
// "glm", "nb", ... — see race.ResolveModel.
func Arms(names ...string) []RaceArm {
	arms := make([]RaceArm, len(names))
	for i, n := range names {
		arms[i] = RaceArm{Model: n}
	}
	return arms
}

// ArmWith is an arm with its own functional options (e.g. a custom
// learning rate or an explicit seed).
func ArmWith(name string, opts ...Option) RaceArm {
	return RaceArm{Model: name, Options: opts}
}

// WithRaceSeed derives every arm's default seed (each arm perturbs it
// by its index, so same-family arms stay decorrelated).
func WithRaceSeed(seed int64) RaceOption {
	return func(c *race.Config) { c.Seed = seed }
}

// WithRaceWindow sets the per-arm prequential window capacity (default
// race.DefaultWindow).
func WithRaceWindow(n int) RaceOption {
	return func(c *race.Config) { c.Window = n }
}

// WithRaceDriftDelta sets the per-arm ADWIN confidence on the 0/1 error
// stream (default race.DefaultDriftDelta).
func WithRaceDriftDelta(delta float64) RaceOption {
	return func(c *race.Config) { c.DriftDelta = delta }
}

// WithRaceWorkers bounds the arm-training worker pool (0 = GOMAXPROCS,
// 1 = sequential; results are identical either way).
func WithRaceWorkers(n int) RaceOption {
	return func(c *race.Config) { c.Workers = n }
}

// WithRaceMinEvidence sets the windowed-observation floor below which
// an arm cannot take the lead (default race.DefaultMinEvidence).
func WithRaceMinEvidence(n int) RaceOption {
	return func(c *race.Config) { c.MinEvidence = n }
}

// WithWarmRestart re-seeds, at each drift-triggered re-race, trailing
// arms of the leader's model family from the leader's envelope.
func WithWarmRestart(on bool) RaceOption {
	return func(c *race.Config) { c.WarmRestart = on }
}

// Race builds a racing meta-scorer over the given arms — the drifting-
// stream one-liner:
//
//	r, err := repro.Race(schema, repro.Arms("dmt", "vfdt", "arf"))
//
// Every arm trains on every Learn batch (in parallel on a bounded
// worker pool, byte-identical to sequential); every read is served by
// the arm currently winning the windowed prequential race. The zero
// option set races with a 500-observation window, ADWIN delta 0.002
// and seed 0.
func Race(schema Schema, arms []RaceArm, opts ...RaceOption) (*Racer, error) {
	cfg := race.Config{Schema: schema, Arms: arms}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return race.New(cfg)
}

// LoadRace reconstructs a racer from checkpoint bytes written by
// (*Racer).Checkpoint — no configuration needed, the "RACE" header
// carries it.
func LoadRace(r io.Reader) (*Racer, error) { return race.FromCheckpoint(r) }

// RunRaceScenario runs the racing payoff experiment — fixed arms vs the
// racer across abrupt/gradual/recurring concept switches — and renders
// the accuracy table plus each racer's leader timeline against the
// planted drift positions (dmtbench -race).
func RunRaceScenario(scale float64, seed int64, progress io.Writer) (string, error) {
	return eval.RunRaceScenario(scale, seed, progress)
}
