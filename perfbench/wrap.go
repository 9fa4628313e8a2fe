package main

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
)

// reqHeader carries the benchmark's request ID from a sender to the
// handler middleware, so client and handler spans of one request link.
const reqHeader = "X-Bench-Req"

// timedScorer decorates a Scorer with a span around every call into
// it that a workload measures: Learn, PredictBatch, Checkpoint and
// Restore. Everything else passes straight through.
type timedScorer struct {
	repro.Scorer
	tr *tracer
	// learnLayer is the module that does the learning behind Learn
	// ("core" for the DMT, "hoeffding" for the VFDT); Learn's span
	// also covers the serve layer's snapshot publish.
	learnLayer string

	mu          sync.Mutex
	lastRestore restoreRec
}

type restoreRec struct {
	start, end time.Time
	bytes      int64
}

func (s *timedScorer) Learn(b repro.Batch) {
	t0 := time.Now()
	s.Scorer.Learn(b)
	t1 := time.Now()
	s.tr.add(span{Name: "serve.learn", Layer: s.learnLayer, Start: s.tr.at(t0), End: s.tr.at(t1), Parent: -1, N: int64(b.Len())})
}

func (s *timedScorer) PredictBatch(X [][]float64, out []int) []int {
	t0 := time.Now()
	out = s.Scorer.PredictBatch(X, out)
	t1 := time.Now()
	fps := make([]uint64, len(X))
	for i, x := range X {
		fps[i] = rowFP(x)
	}
	s.tr.add(span{Name: "serve.predict", Layer: "serve", Start: s.tr.at(t0), End: s.tr.at(t1), Parent: -1, N: int64(len(X)), fps: fps})
	return out
}

func (s *timedScorer) Checkpoint(w io.Writer) error {
	cw := &countWriter{w: w}
	t0 := time.Now()
	err := s.Scorer.Checkpoint(cw)
	t1 := time.Now()
	s.tr.add(span{Name: "serve.checkpoint", Layer: "persist", Start: s.tr.at(t0), End: s.tr.at(t1), Parent: -1, N: cw.n})
	return err
}

func (s *timedScorer) Restore(r io.Reader) error {
	cr := &countReader{r: r}
	t0 := time.Now()
	err := s.Scorer.Restore(cr)
	t1 := time.Now()
	s.tr.add(span{Name: "serve.restore", Layer: "persist", Start: s.tr.at(t0), End: s.tr.at(t1), Parent: -1, N: cr.n})
	s.mu.Lock()
	s.lastRestore = restoreRec{start: t0, end: t1, bytes: cr.n}
	s.mu.Unlock()
	return err
}

// takeRestore returns the timing of the latest Restore.
func (s *timedScorer) takeRestore() restoreRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRestore
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// timedTransport is the follower's http.RoundTripper in traced runs:
// it tags each envelope request with a request ID, records the time to
// the response headers (follow.fetch) and the body transfer
// (follow.transfer), and keeps the latest fetch for the freshness
// breakdown.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu   sync.Mutex
	last fetchRec
}

type fetchRec struct {
	sent, headers, body time.Time
	bytes               int64
	delta               bool
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.tr.newReq()
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	sent := time.Now()
	resp, err := t.base.RoundTrip(r)
	headers := time.Now()
	t.tr.add(span{Name: "follow.fetch", Layer: "server", Start: t.tr.at(sent), End: t.tr.at(headers), Parent: -1, Req: id})
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, req: id, rec: fetchRec{
		sent: sent, headers: headers,
		delta: resp.Header.Get("Content-Type") == "application/x-repro-delta",
	}}
	return resp, nil
}

// takeFetch returns the latest fetch whose body was read to the end.
func (t *timedTransport) takeFetch() fetchRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

type timedBody struct {
	io.ReadCloser
	t    *timedTransport
	req  int64
	rec  fetchRec
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rec.bytes += int64(n)
	if err == io.EOF && !b.done {
		b.done = true
		b.rec.body = time.Now()
		tr := b.t.tr
		tr.add(span{Name: "follow.transfer", Layer: "server", Start: tr.at(b.rec.headers), End: tr.at(b.rec.body), Parent: -1, Req: b.req, N: b.rec.bytes})
		b.t.mu.Lock()
		b.t.last = b.rec
		b.t.mu.Unlock()
	}
	return n, err
}

// timedHandler is the handler middleware of traced runs: one span per
// request, named after the endpoint, carrying the sender's request ID.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "server.other"
		switch r.URL.Path {
		case "/v1/predict":
			name = "server.single"
		case "/v1/predict_batch":
			name = "server.batch"
		case "/v1/envelope":
			name = "server.envelope"
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		tr.add(span{Name: name, Layer: "server", Start: tr.at(t0), End: tr.at(t1), Parent: -1, Req: req})
	})
}
