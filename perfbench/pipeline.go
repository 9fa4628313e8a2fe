package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro"
)

// pipeline: a VFDT (MC) trainer learns a SEA stream in a closed loop
// behind its prediction server, publishing every batch (the dmtserve
// default); an in-process replica bootstraps from it and follows it
// with deltas, wired as dmtserve -follow wires it at default flags; one
// open-loop connection probes the replica with single-row predictions.
const (
	pipeModel = "VFDT (MC)"
	pipeNoise = 0.1
	// pipePoolRows rows are generated in set-up and replayed in order
	// as dmtserve replays its stream.
	pipePoolRows = 200_000
	pipeWarmRows = 100_000 // learnt before the replica bootstraps
	pipeBatch    = 100     // dmtserve -batch default
	pipeProbeHz  = 200     // probe requests per second, one connection
	pipeHoldout  = 10_000  // labelled rows the probe asks about
	pipeInterval = 500 * time.Millisecond
	pipeWait     = 10 * time.Second
	pipeConverge = 30 * time.Second
)

type pipeEnv struct {
	o       options
	pool    repro.Batch
	holdout repro.Batch
	pos     int

	trainer repro.Scorer          // what the loop and the trainer server call
	inner   *repro.SnapshotScorer // the trainer's scorer, for its publish count
	trainLB *loopback

	replica repro.Scorer // the bootstrapped replica
	served  repro.Scorer // the replica as the follower and its server see it
	timed   *timedScorer // served, when traced
	bootV   uint64
	bootRaw []byte
	replLB  *loopback

	probe *sender
	plan  plan
}

func setupPipeline(ctx context.Context, o options) (_ instance, err error) {
	e := &pipeEnv{o: o}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	sea := repro.NewSEA(pipePoolRows, pipeNoise, o.seed)
	if e.pool, err = generate(sea, pipePoolRows); err != nil {
		return nil, err
	}
	if e.holdout, err = generate(repro.NewSEA(pipeHoldout, pipeNoise, o.seed+1), pipeHoldout); err != nil {
		return nil, err
	}
	sc, err := repro.Serve(pipeModel, sea.Schema(), repro.WithServeModelOptions(repro.WithSeed(o.seed)))
	if err != nil {
		return nil, err
	}
	e.inner, _ = sc.(*repro.SnapshotScorer)
	if e.inner == nil {
		return nil, fmt.Errorf("%s is not served by a snapshot scorer", pipeModel)
	}
	for e.pos < pipeWarmRows {
		sc.Learn(e.nextBatch())
	}
	e.trainer = sc
	if o.tr != nil {
		e.trainer = &timedScorer{Scorer: sc, tr: o.tr, learnLayer: "hoeffding"}
	}
	if e.trainLB, err = serveLoopback(repro.NewPredictionServer(e.trainer, serverConfig()), o.tr); err != nil {
		return nil, err
	}

	client := &http.Client{Timeout: pipeWait + 30*time.Second}
	if e.replica, e.bootV, e.bootRaw, err = repro.BootstrapScorerRaw(ctx, client, e.trainLB.url, 1); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	client.CloseIdleConnections()
	e.served = e.replica
	if o.tr != nil {
		e.timed = &timedScorer{Scorer: e.replica, tr: o.tr, learnLayer: "hoeffding"}
		e.served = e.timed
	}
	if e.replLB, err = serveLoopback(repro.NewPredictionServer(e.served, serverConfig()), o.tr); err != nil {
		return nil, err
	}
	if e.probe, err = newSender(e.replLB.url, e.holdout, 2, o.tr); err != nil {
		return nil, err
	}
	e.plan = makePlan(rand.New(rand.NewSource(o.seed)), e.holdout, o.seconds, time.Second/pipeProbeHz, 0, 0, 1)
	for i := 0; i < 20; i++ {
		if _, err := e.probe.predictRows(ctx, kindSingle, []int{i}); err != nil {
			return nil, fmt.Errorf("probe warm-up: %w", err)
		}
	}
	return e, nil
}

// nextBatch returns the next pipeBatch rows of the pool, starting over
// at its end.
func (e *pipeEnv) nextBatch() repro.Batch {
	if e.pos+pipeBatch > e.pool.Len() {
		e.pos = 0
	}
	b := repro.Batch{X: e.pool.X[e.pos : e.pos+pipeBatch], Y: e.pool.Y[e.pos : e.pos+pipeBatch]}
	e.pos += pipeBatch
	return b
}

func (e *pipeEnv) close() {
	if e.probe != nil {
		e.probe.close()
	}
	if e.replLB != nil {
		e.replLB.close()
	}
	if e.trainLB != nil {
		e.trainLB.close()
	}
}

// freshness pairs each structure version the trainer published with
// the first replica install that covers it.
type freshness struct {
	mu   sync.Mutex
	pubs []published
	next int
	ms   []float64
}

type published struct {
	v  uint64
	at time.Time // the publishing Learn call returned
}

func (f *freshness) publish(v uint64, at time.Time) {
	f.mu.Lock()
	f.pubs = append(f.pubs, published{v, at})
	f.mu.Unlock()
}

// install records the freshness of every version up to v not yet
// covered, and returns the newest of them with their count.
func (f *freshness) install(v uint64, at time.Time) (head published, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ; f.next < len(f.pubs) && f.pubs[f.next].v <= v; f.next++ {
		head = f.pubs[f.next]
		f.ms = append(f.ms, ms(int64(at.Sub(head.at))))
		n++
	}
	return head, n
}

func (f *freshness) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pubs) - f.next
}

// installRec splits one install's head-version freshness into the
// segments that add up to it.
type installRec struct {
	idle, respond, transfer, apply, restore time.Duration
	wire, full                              int64
	delta                                   bool
}

func (e *pipeEnv) measure(ctx context.Context) *result {
	r := newResult()
	tr := e.o.tr
	fresh := &freshness{}
	var followErrs onceErr
	var tt *timedTransport
	var transport http.RoundTripper
	if tr != nil {
		tt = &timedTransport{base: http.DefaultTransport, tr: tr}
		transport = tt
	}
	var recMu sync.Mutex
	var recs []installRec
	f := repro.NewFollower(e.trainLB.url, e.served, repro.FollowConfig{
		Interval:  pipeInterval,
		Wait:      pipeWait,
		Transport: transport,
		Drainer:   e.replLB.ps,
		OnInstall: func(v uint64) {
			at := time.Now()
			head, n := fresh.install(v, at)
			if tt == nil || n == 0 {
				return
			}
			ft, rs := tt.takeFetch(), e.timed.takeRestore()
			rec := installRec{transfer: ft.body.Sub(ft.headers), apply: rs.start.Sub(ft.body),
				restore: rs.end.Sub(rs.start), wire: ft.bytes, full: rs.bytes, delta: ft.delta}
			if head.at.After(ft.sent) {
				rec.respond = ft.headers.Sub(head.at)
			} else {
				rec.idle, rec.respond = ft.sent.Sub(head.at), ft.headers.Sub(ft.sent)
			}
			tr.add(span{Name: "follow.apply", Layer: "persist", Start: tr.at(ft.body), End: tr.at(rs.start), Parent: -1})
			recMu.Lock()
			recs = append(recs, rec)
			recMu.Unlock()
		},
		OnError: func(_ repro.FollowCause, err error) { followErrs.add(err) },
	})
	e.replLB.ps.SetStalenessSource(f)
	f.SeedInstalled(e.bootV, e.bootRaw)
	fctx, stopFollow := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.Run(fctx)
	}()
	go func() {
		defer wg.Done()
		repro.RunHeartbeats(fctx, nil, e.trainLB.url, time.Second, func() repro.ReplicaAnnounce {
			v, ok := f.InstalledVersion()
			return repro.ReplicaAnnounce{ID: "bench-replica", URL: e.replLB.url, Version: v, HasVersion: ok, Ready: e.replLB.ps.Ready()}
		})
	}()
	defer func() {
		stopFollow()
		wg.Wait()
	}()

	var queue *queueSampler
	if tr != nil {
		queue = sampleQueue(e.replLB.ps)
	}
	before := e.replLB.ps.Status()
	pubs0 := e.inner.Publishes()
	start := time.Now()
	end := start.Add(e.o.seconds)

	var rows, batches int
	var first, last time.Time
	trained := make(chan struct{})
	go func() {
		defer close(trained)
		lastV, _ := e.trainer.StructureVersion()
		for time.Now().Before(end) {
			b := e.nextBatch()
			if first.IsZero() {
				first = time.Now()
			}
			e.trainer.Learn(b)
			last = time.Now()
			if v, _ := e.trainer.StructureVersion(); v != lastV {
				fresh.publish(v, last)
				lastV = v
			}
			rows += b.Len()
			batches++
		}
	}()
	st := &loadStats{}
	pctx, cancel := context.WithDeadline(ctx, end.Add(time.Second))
	e.probe.run(pctx, start, e.plan, st)
	cancel()
	<-trained
	r.window = e.o.seconds
	queueMax := 0
	if queue != nil {
		queueMax = queue.finish()
	}
	after := e.replLB.ps.Status()
	publishes := e.inner.Publishes() - pubs0

	// Output check: with the trainer stopped, the replica must converge
	// to the trainer's final envelope, byte for byte.
	finalV, _ := e.trainer.StructureVersion()
	deadline := time.Now().Add(pipeConverge)
	converged := false
	for time.Now().Before(deadline) {
		if v, ok := f.InstalledVersion(); ok && v == finalV && fresh.pending() == 0 {
			converged = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.check(converged, "replica did not install the trainer's final version %d within %v (follower: %+v)", finalV, pipeConverge, f.Stats())
	if converged {
		var got bytes.Buffer
		err := e.replica.Checkpoint(&got)
		want, wantV, werr := e.trainLB.ps.Envelope()
		r.check(err == nil && werr == nil, "checkpoint capture: replica %v, trainer %v", err, werr)
		r.check(wantV == finalV && bytes.Equal(got.Bytes(), want),
			"replica checkpoint (%d bytes) differs from the trainer's final envelope (%d bytes, version %d of %d)",
			got.Len(), len(want), wantV, finalV)
	}
	stopFollow()
	wg.Wait()
	fs := f.Stats()

	st.checkClasses(r)
	r.attempted, r.failed = st.attempted[kindSingle], st.failed[kindSingle]
	if why := st.behind(e.plan.period); why != "" {
		r.invalid = append(r.invalid, "probe "+why)
	}
	r.e2e["rows_per_s"] = float64(rows) / last.Sub(first).Seconds()
	r.linef("%-22s %.1f rows/s (%d rows, %d batches)  [rows_per_s]", "ingest_rows_per_s", r.e2e["rows_per_s"], rows, batches)
	r.e2e["f1"] = st.score.value()
	r.linef("%-22s %.4f over %d probe answers  [f1]", "probe_f1", r.e2e["f1"], st.score.n)
	r.timing("fresh_ms", fresh.ms, gate{"latency_ms", 0.5}, gate{"latency2_ms", 0.9})
	r.timing("single_ms", st.lat[kindSingle])
	r.linef("%-22s %.5f (%d failed of %d attempted; %d never sent)%s", "fail_share",
		share(float64(r.failed), float64(r.attempted)), r.failed, r.attempted, st.unsent, firstErrs(st.errs))
	r.linef("%-22s %s ms", "generator lateness", summarize(st.late))
	r.linef("%-22s %d versions published, %d fetches, %d installs (%d by delta, %d delta fallbacks), %d follow errors%s",
		"follower", len(fresh.pubs), fs.Fetches, fs.Installs, fs.DeltaInstalls, fs.DeltaFallbacks, fs.Errors(), firstErrs([]string{followErrs.msg}))

	r.layer["serve.publishes_per_batch"] = share(float64(publishes), float64(batches))
	r.layer["follow.fetches"] = float64(fs.Fetches)
	r.layer["follow.installs"] = float64(fs.Installs)
	r.layer["follow.delta_installs"] = float64(fs.DeltaInstalls)
	r.layer["follow.delta_fallbacks"] = float64(fs.DeltaFallbacks)
	r.layer["follow.errors"] = float64(fs.Errors())
	r.layer["follow.versions_per_install"] = share(float64(len(fresh.ms)), float64(fs.Installs))
	if tr == nil {
		return r
	}
	spans := tr.snapshot()
	learn, _ := spanDurs(spans, "serve.learn")
	ld := summarize(learn)
	r.layer["serve.learn_us.p50"], r.layer["serve.learn_us.p99"] = ld.P50, ld.P99
	r.layer["serve.learn_busy_share"] = share(sum(learn)/1e6, r.window.Seconds())
	r.linef("%-22s %s us; busy %.3f of the window", "serve.learn", ld, r.layer["serve.learn_busy_share"])
	ck, ckBytes := spanDurs(spans, "serve.checkpoint")
	r.layer["serve.checkpoint_ms"] = median(ck) / 1e3
	r.layer["serve.checkpoint_count"] = float64(len(ck))
	r.layer["serve.checkpoint_kb"] = share(sum(ckBytes), float64(len(ckBytes))) / 1e3

	var idle, respond, transfer, wire, apply, restore []float64
	var dWire, dFull float64
	for _, x := range recs {
		idle = append(idle, ms(int64(x.idle)))
		respond = append(respond, ms(int64(x.respond)))
		transfer = append(transfer, ms(int64(x.transfer)))
		wire = append(wire, float64(x.wire)/1e3)
		apply = append(apply, ms(int64(x.apply)))
		restore = append(restore, ms(int64(x.restore)))
		if x.delta {
			dWire += float64(x.wire)
			dFull += float64(x.full)
		}
	}
	mean := func(xs []float64) float64 { return share(sum(xs), float64(len(xs))) }
	r.layer["follow.idle_ms"] = mean(idle)
	r.layer["server.respond_ms"] = mean(respond)
	r.layer["server.transfer_ms"] = mean(transfer)
	r.layer["server.wire_kb"] = mean(wire)
	r.layer["follow.apply_ms"] = mean(apply)
	r.layer["serve.restore_ms"] = mean(restore)
	if dFull > 0 {
		r.layer["server.delta_saving"] = 1 - dWire/dFull
	}
	r.linef("%-22s over %d installs, mean ms: idle %.2f + respond %.2f + transfer %.2f + apply %.2f + restore %.2f; %.1f kB on the wire",
		"fresh breakdown", len(recs), mean(idle), mean(respond), mean(transfer), mean(apply), mean(restore), mean(wire))
	servingLayers(r, spans, before, after, queueMax, st.late)
	return r
}

func firstErrs(errs []string) string {
	if len(errs) == 0 || errs[0] == "" {
		return ""
	}
	return "; first: " + errs[0]
}
