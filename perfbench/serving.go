package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
)

// serverConfig is dmtserve's default serving configuration: a 1 ms
// coalesce window, 64-row coalesced batches, 256 requests in flight.
func serverConfig() repro.ServerConfig {
	return repro.ServerConfig{
		CoalesceWindow: time.Millisecond,
		MaxBatch:       64,
		MaxInFlight:    256,
		Registry:       repro.RegistryConfig{TTL: 3 * time.Second},
	}
}

// loopback serves a prediction server's handler on a loopback TCP
// port, through the span middleware when traced.
type loopback struct {
	ps   *repro.PredictionServer
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(ps *repro.PredictionServer, tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := ps.Handler()
	if tr != nil {
		h = timedHandler(h, tr)
	}
	l := &loopback{ps: ps, url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

// close releases parked long-polls, stops the listener and waits for
// the serving goroutine to end.
func (l *loopback) close() {
	l.ps.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
}

// queueSampler samples a server's admission queue depth from Status()
// every few milliseconds until stopped.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func sampleQueue(ps *repro.PredictionServer) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				q.max = max(q.max, ps.Status().QueueDepth)
			}
		}
	}()
	return q
}

// finish stops sampling and returns the deepest queue seen.
func (q *queueSampler) finish() int {
	close(q.stop)
	<-q.done
	return q.max
}

// spanDurs returns the durations in microseconds of the spans called
// name, and their N fields.
func spanDurs(spans []span, name string) (durs, ns []float64) {
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, us(s.dur()))
			ns = append(ns, float64(s.N))
		}
	}
	return durs, ns
}

// servingLayers fills the per-kind serving metrics of a traced run and
// the counters read from the server's status. before is the status at
// the start of the window.
func servingLayers(r *result, spans []span, before, after repro.ServerStatus, queueMax int, late []float64) {
	_, sv := link(spans)
	for _, k := range kindNames {
		r.layer["server.handler_us."+k] = median(sv.handlerUs[k])
		r.layer["server.wait_us."+k] = median(sv.waitUs[k])
		r.layer["serve.predict_us."+k] = median(sv.predictUs[k])
		r.layer["client.net_us."+k] = median(sv.netUs[k])
		if len(sv.handlerUs[k]) > 0 {
			r.linef("%-22s handler %s us; wait %s us; predict %s us; net %s us", k,
				summarize(sv.handlerUs[k]), summarize(sv.waitUs[k]), summarize(sv.predictUs[k]), summarize(sv.netUs[k]))
		}
	}
	rows := float64(after.CoalescedRows - before.CoalescedRows)
	batches := float64(after.CoalescedBatches - before.CoalescedBatches)
	r.layer["server.coalesce_rows"] = share(rows, batches)
	r.layer["server.rejected"] = float64(after.Rejected - before.Rejected)
	r.layer["server.queue_depth_max"] = float64(queueMax)
	r.layer["client.late_p99_ms"] = summarize(late).P99
	r.linef("%-22s %.3f rows per coalesced batch over %.0f batches; %.0f rejected; queue depth max %d",
		"coalescer", r.layer["server.coalesce_rows"], batches, r.layer["server.rejected"], queueMax)
}

// onceErr keeps the first error message reported from any goroutine.
type onceErr struct {
	mu  sync.Mutex
	msg string
}

func (o *onceErr) add(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.msg == "" {
		o.msg = err.Error()
	}
}
