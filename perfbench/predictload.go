package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
)

// predict-load: a DMT trained on an Agrawal prefix during set-up keeps
// learning at a slow fixed pace while two open-loop connections send a
// fixed mix of single-row JSON /v1/predict and 64-row binary
// /v1/predict_batch requests straight to its server.
//
// The served model is the system under load, not an input: it is
// trained from one fixed Agrawal stream whatever the seed, because the
// DMT's size after a prefix varies widely between streams (9 to 25
// leaves after 800k rows) and with it every serving cost. The seed
// draws the requests.
const (
	loadModelSeed   = 1
	loadNoise       = 0.1
	loadPrefixRows  = 400_000 // learnt in set-up, in the paper's 0.1% batches of a 1M-row stream
	loadTrainBatch  = 1_000
	loadLearnEvery  = 100 * time.Millisecond // background pace: 10k rows/s
	loadLearnRows   = 200_000                // background rows, replayed when used up
	loadHoldout     = 20_000                 // labelled rows the requests ask about
	loadConns       = 2
	loadPerConnHz   = 250 // requests per second per connection
	loadBatchEvery  = 2   // every other request is a batch
	loadBatchRows   = 64
	loadCheckSingle = 64  // rows checked one by one after quiescing
	loadCheckBatch  = 192 // rows checked in batches after quiescing
)

type loadEnv struct {
	o       options
	schema  repro.Schema
	rows    repro.Batch // background training rows
	holdout repro.Batch
	pos     int

	raw     repro.Scorer // the trained scorer
	scorer  repro.Scorer // what the server and the trainer call
	lb      *loopback
	senders []*sender
	plans   []plan
}

func setupPredictLoad(ctx context.Context, o options) (_ instance, err error) {
	e := &loadEnv{o: o}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	gen := repro.NewAgrawal(loadPrefixRows+loadLearnRows, loadNoise, loadModelSeed)
	e.schema = gen.Schema()
	prefix, err := generate(gen, loadPrefixRows)
	if err != nil {
		return nil, err
	}
	if e.rows, err = generate(gen, loadLearnRows); err != nil {
		return nil, err
	}
	if e.holdout, err = generate(repro.NewAgrawal(loadHoldout, loadNoise, o.seed), loadHoldout); err != nil {
		return nil, err
	}
	if e.raw, err = repro.Serve("DMT", e.schema, repro.WithServeModelOptions(repro.WithSeed(loadModelSeed))); err != nil {
		return nil, err
	}
	for i := 0; i+loadTrainBatch <= prefix.Len(); i += loadTrainBatch {
		e.raw.Learn(repro.Batch{X: prefix.X[i : i+loadTrainBatch], Y: prefix.Y[i : i+loadTrainBatch]})
	}
	e.scorer = e.raw
	if o.tr != nil {
		e.scorer = &timedScorer{Scorer: e.raw, tr: o.tr, learnLayer: "core"}
	}
	if e.lb, err = serveLoopback(repro.NewPredictionServer(e.scorer, serverConfig()), o.tr); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	period := time.Second / loadPerConnHz
	for c := 0; c < loadConns; c++ {
		s, err := newSender(e.lb.url, e.holdout, e.schema.NumClasses, o.tr)
		if err != nil {
			return nil, err
		}
		e.senders = append(e.senders, s)
		phase := time.Duration(c) * period / loadConns
		e.plans = append(e.plans, makePlan(rng, e.holdout, o.seconds, period, phase, loadBatchEvery, loadBatchRows))
		for i := 0; i < 10; i++ {
			if _, err := s.predictRows(ctx, kindSingle, []int{i}); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if _, err := s.predictRows(ctx, kindBatch, seq(i*loadBatchRows, loadBatchRows)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func (e *loadEnv) close() {
	for _, s := range e.senders {
		s.close()
	}
	if e.lb != nil {
		e.lb.close()
	}
}

func (e *loadEnv) measure(ctx context.Context) *result {
	r := newResult()
	tr := e.o.tr
	var queue *queueSampler
	if tr != nil {
		queue = sampleQueue(e.lb.ps)
	}
	before := e.lb.ps.Status()
	start := time.Now()
	end := start.Add(e.o.seconds)

	// The background trainer: one batch every loadLearnEvery.
	var learnt int
	var learnSec []float64
	trained := make(chan struct{})
	go func() {
		defer close(trained)
		tick := time.NewTicker(loadLearnEvery)
		defer tick.Stop()
		for now := range tick.C {
			if !now.Before(end) {
				return
			}
			if e.pos+loadTrainBatch > e.rows.Len() {
				e.pos = 0
			}
			b := repro.Batch{X: e.rows.X[e.pos : e.pos+loadTrainBatch], Y: e.rows.Y[e.pos : e.pos+loadTrainBatch]}
			e.pos += loadTrainBatch
			t0 := time.Now()
			e.scorer.Learn(b)
			learnSec = append(learnSec, time.Since(t0).Seconds())
			learnt += b.Len()
		}
	}()
	st := &loadStats{}
	sctx, cancel := context.WithDeadline(ctx, end.Add(time.Second))
	var wg sync.WaitGroup
	for i, s := range e.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(sctx, start, e.plans[i], st)
		}()
	}
	wg.Wait()
	cancel()
	<-trained
	r.window = e.o.seconds
	queueMax := 0
	if queue != nil {
		queueMax = queue.finish()
	}
	after := e.lb.ps.Status()

	// Output check, quiesced: HTTP answers on a fixed row set equal
	// in-process PredictBatch on the same rows.
	rows := seq(0, loadCheckSingle+loadCheckBatch)
	X := make([][]float64, len(rows))
	for i, j := range rows {
		X[i] = e.holdout.X[j]
	}
	want := e.raw.PredictBatch(X, nil)
	var got []int
	var err error
	for _, j := range rows[:loadCheckSingle] {
		var y []int
		if y, err = e.senders[0].predictRows(ctx, kindSingle, []int{j}); err != nil {
			break
		}
		got = append(got, y...)
	}
	for i := loadCheckSingle; err == nil && i < len(rows); i += loadBatchRows {
		var y []int
		if y, err = e.senders[1].predictRows(ctx, kindBatch, rows[i:i+loadBatchRows]); err == nil {
			got = append(got, y...)
		}
	}
	r.check(err == nil, "quiesced check request: %v", err)
	if err == nil {
		diff := 0
		for i := range want {
			if got[i] != want[i] {
				diff++
			}
		}
		r.check(diff == 0, "%d of %d HTTP answers differ from in-process PredictBatch", diff, len(want))
	}

	st.checkClasses(r)
	for k := range kindNames {
		r.attempted += st.attempted[k]
		r.failed += st.failed[k]
	}
	if why := st.behind(e.plans[0].period); why != "" {
		r.invalid = append(r.invalid, why)
	}
	// Learn times have a fast and a slow mode, as preq-wide's batches
	// do, so the rate reads the p10, the fast mode. The median is
	// printed beside it.
	learnMs := make([]float64, len(learnSec))
	for i, t := range learnSec {
		learnMs[i] = t * 1e3
	}
	bg := summarize(learnMs)
	r.e2e["rows_per_s"] = share(loadTrainBatch, bg.P10/1e3)
	r.linef("%-22s %.1f rows/s, %d-row batch over its p10 Learn time; %.1f rows/s over its median (%d rows in %d Learn calls, %.3f s)  [rows_per_s]",
		"bg_learn_rows_per_s", r.e2e["rows_per_s"], loadTrainBatch, share(loadTrainBatch, bg.P50/1e3), learnt, len(learnSec), sum(learnSec))
	r.linef("%-22s %s ms", "bg_learn_ms", bg)
	r.e2e["f1"] = st.score.value()
	r.linef("%-22s %.4f over %d answered rows  [f1]", "served_f1", r.e2e["f1"], st.score.n)
	r.timing("single_ms", st.lat[kindSingle], gate{"latency_ms", 0.5})
	r.timing("batch_ms", st.lat[kindBatch], gate{"latency2_ms", 0.5})
	r.linef("%-22s %.5f (%d failed of %d attempted; %d never sent)%s", "fail_share",
		share(float64(r.failed), float64(r.attempted)), r.failed, r.attempted, st.unsent, firstErrs(st.errs))
	r.linef("%-22s %s ms", "generator lateness", summarize(st.late))
	if tr == nil {
		return r
	}
	spans := tr.snapshot()
	learn, _ := spanDurs(spans, "serve.learn")
	ld := summarize(learn)
	r.layer["serve.learn_us.p50"], r.layer["serve.learn_us.p99"] = ld.P50, ld.P99
	r.layer["serve.learn_busy_share"] = share(sum(learn)/1e6, r.window.Seconds())
	r.linef("%-22s %s us; busy %.3f of the window", "serve.learn", ld, r.layer["serve.learn_busy_share"])
	servingLayers(r, spans, before, after, queueMax, st.late)
	return r
}
