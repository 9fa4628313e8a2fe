package main

import (
	"context"
	"errors"
	"time"

	"repro"
)

// preq-wide: a DMT prequential (test-then-train) run in a closed loop
// over a 200-feature Hyperplane stream. The DMT's learning (candidate
// scan, GLM step, AIC test) does nearly all the work.
//
// The stream is a pool generated in set-up. A pass runs a fresh DMT
// over the whole pool, to its end, and the measured run makes passes
// until its time is up. No row is ever tested by a model that has
// already learnt it, so F1 measures prequential accuracy and not
// memory, and it does not change with the number of passes.
const (
	preqFeatures = 200
	preqNoise    = 0.1
	// preqPoolRows rows of 200 features keep the pool near 80 MB; a
	// pass over them takes about 1.3 s. Shorter passes leave the
	// model nearer chance, where F1 spreads more between seeds.
	preqPoolRows = 50_000
	// preqBatch is the test-then-train batch: the paper's 0.1% of a
	// 250k-row stream.
	preqBatch    = 250
	preqWarmRows = 10 * preqBatch
)

type preqEnv struct {
	o      options
	schema repro.Schema
	pool   repro.Batch
}

func setupPreq(ctx context.Context, o options) (instance, error) {
	gen := repro.NewHyperplane(preqPoolRows, preqFeatures, preqNoise, o.seed)
	pool, err := generate(gen, preqPoolRows)
	if err != nil {
		return nil, err
	}
	e := &preqEnv{o: o, schema: gen.Schema(), pool: pool}
	// Warm up on a throwaway model, so the measured run starts with
	// the code and the pool in cache.
	warm, err := e.newModel()
	if err != nil {
		return nil, err
	}
	opts := repro.EvalOptions{MinBatchSize: preqBatch, MaxIters: preqWarmRows / preqBatch}
	if _, err := repro.PrequentialContext(ctx, warm, &poolStream{schema: e.schema, pool: pool}, opts); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *preqEnv) newModel() (repro.Classifier, error) {
	return repro.New("DMT", e.schema, repro.WithSeed(e.o.seed))
}

func (e *preqEnv) close() {}

func (e *preqEnv) measure(ctx context.Context) *result {
	r := newResult()
	c := &timedClassifier{classes: e.schema.NumClasses, tr: e.o.tr}
	ctx, cancel := context.WithTimeout(ctx, e.o.seconds)
	defer cancel()
	var iters []repro.IterStats
	var passes []repro.EvalResult // the passes that reached the pool's end
	start := time.Now()
	for ctx.Err() == nil {
		m, err := e.newModel()
		if err != nil {
			r.check(false, "new model: %v", err)
			break
		}
		c.inner, c.iterStart = m, time.Now()
		res, err := repro.PrequentialContext(ctx, c, &poolStream{schema: e.schema, pool: e.pool},
			repro.EvalOptions{MinBatchSize: preqBatch, AfterTrain: c.afterTrain})
		iters = append(iters, res.Iters...)
		if err != nil {
			r.check(errors.Is(err, context.DeadlineExceeded), "prequential run: %v", err)
			break
		}
		passes = append(passes, res)
	}
	wall := time.Since(start)
	r.window = e.o.seconds
	r.check(len(iters) > 0, "prequential run finished no batch")
	r.check(c.invalid == 0, "%d predictions were not a class of %d", c.invalid, e.schema.NumClasses)
	r.attempted, r.failed = len(iters), c.invalidBatches

	rows := len(iters) * preqBatch
	// The shared host slows a core by up to half for seconds at a time
	// and then runs it at full speed again, so batch times have a fast
	// and a slow mode and a run's median falls in whichever held more of
	// it. The declared figures read the p10, the fast mode: a change that
	// slows every batch shows there in full, one that slows a few
	// batches shows in the whole-run rate and the p50 and p99 printed
	// beside it.
	loop := summarize(c.loopSec)
	r.e2e["rows_per_s"] = preqBatch / loop.P10
	r.linef("%-22s %.1f rows/s, a batch over its p10 iteration time; %.1f rows/s over the whole run (%d rows in %v, %d whole passes over the %d-row stream)  [rows_per_s]",
		"preq_rows_per_s", r.e2e["rows_per_s"], float64(rows)/wall.Seconds(), rows, wall.Round(time.Millisecond), len(passes), preqPoolRows)
	// F1 is the mean per-batch F1 of the whole passes; a run too short
	// for one falls back on its partial pass.
	scored := passes
	if len(scored) == 0 {
		scored = []repro.EvalResult{{Iters: iters}}
	}
	var f1s []float64
	for _, p := range scored {
		f, _ := p.F1()
		f1s = append(f1s, f)
	}
	r.e2e["f1"] = sum(f1s) / float64(len(f1s))
	r.linef("%-22s %.4f, mean per-batch F1 of a pass, over %d passes  [f1]", "preq_f1", r.e2e["f1"], len(f1s))
	iter := make([]float64, len(iters))
	for i, it := range iters {
		iter[i] = it.Seconds * 1e3
	}
	r.timing("preq_batch_ms", iter, gate{"latency_ms", 0.1})
	r.timing("preq_score_ms", c.scoreMs, gate{"latency2_ms", 0.1})

	learn, score := sum(c.learnMs), sum(c.scoreMs)
	wallMs := ms(int64(wall))
	r.layer["core.learn_ms"] = median(c.learnMs)
	r.layer["core.learn_share"] = share(learn, wallMs)
	r.layer["core.predict_share"] = share(score, wallMs)
	r.layer["eval.other_share"] = share(wallMs-learn-score, wallMs)
	if last := scored[len(scored)-1].Iters; len(last) > 0 {
		r.layer["core.splits"] = last[len(last)-1].Splits
		r.layer["core.params"] = last[len(last)-1].Params
	}
	return r
}

// poolStream is the pool as an unsized stream that ends with the
// pool. Next copies the row, as the Stream contract gives callers
// ownership.
type poolStream struct {
	schema repro.Schema
	pool   repro.Batch
	pos    int
}

func (s *poolStream) Schema() repro.Schema { return s.schema }

func (s *poolStream) Next() (repro.Instance, error) {
	if s.pos >= s.pool.Len() {
		return repro.Instance{}, repro.ErrEndOfStream
	}
	i := s.pos
	s.pos++
	return repro.Instance{X: append([]float64(nil), s.pool.X[i]...), Y: s.pool.Y[i]}, nil
}

func (s *poolStream) Reset() { s.pos = 0 }

// timedClassifier wraps the DMT handed to PrequentialContext. It times
// each batch's scoring (first Predict to Learn) and Learn, and, when
// traced, records per batch an eval.batch span with core.predict,
// core.learn and core.complexity children. Predict checks every answer
// is a class.
type timedClassifier struct {
	inner   repro.Classifier
	classes int
	tr      *tracer

	testing                         bool
	iterStart                       time.Time // end of the previous batch
	testStart, learnStart, learnEnd time.Time
	complexityStart, complexityEnd  time.Time
	batchInvalid                    bool

	invalid, invalidBatches int
	learnMs, scoreMs        []float64
	loopSec                 []float64 // each batch's whole iteration
}

func (c *timedClassifier) Name() string { return c.inner.Name() }

func (c *timedClassifier) Predict(x []float64) int {
	if !c.testing {
		c.testing, c.testStart = true, time.Now()
	}
	y := c.inner.Predict(x)
	if y < 0 || y >= c.classes {
		c.invalid++
		c.batchInvalid = true
	}
	return y
}

func (c *timedClassifier) Learn(b repro.Batch) {
	c.learnStart = time.Now()
	c.inner.Learn(b)
	c.learnEnd = time.Now()
	if !c.testing {
		c.testStart = c.learnStart
	}
	c.learnMs = append(c.learnMs, ms(int64(c.learnEnd.Sub(c.learnStart))))
	c.scoreMs = append(c.scoreMs, ms(int64(c.learnStart.Sub(c.testStart))))
}

func (c *timedClassifier) Complexity() repro.Complexity {
	c.complexityStart = time.Now()
	v := c.inner.Complexity()
	c.complexityEnd = time.Now()
	return v
}

// afterTrain ends a batch; PrequentialContext calls it after each
// iteration, outside its own timing. The batch's eval span runs from
// the previous batch's end, so it covers reading the batch too.
func (c *timedClassifier) afterTrain(int, repro.Classifier) error {
	if c.batchInvalid {
		c.invalidBatches++
	}
	end := time.Now()
	c.loopSec = append(c.loopSec, end.Sub(c.iterStart).Seconds())
	if t := c.tr; t != nil {
		it := t.add(span{Name: "eval.batch", Layer: "eval", Start: t.at(c.iterStart), End: t.at(end), Parent: -1})
		t.add(span{Name: "core.predict", Layer: "core", Start: t.at(c.testStart), End: t.at(c.learnStart), Parent: it})
		t.add(span{Name: "core.learn", Layer: "core", Start: t.at(c.learnStart), End: t.at(c.learnEnd), Parent: it})
		t.add(span{Name: "core.complexity", Layer: "core", Start: t.at(c.complexityStart), End: t.at(c.complexityEnd), Parent: it})
	}
	c.testing, c.batchInvalid, c.iterStart = false, false, end
	return nil
}
