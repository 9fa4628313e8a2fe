package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
)

// The load generator, the benchmark's own "client" layer. Each sender
// owns one connection and walks a schedule fixed before the run: an
// open loop, so a slow server does not slow the offered load. Latency
// is timed from each request's due time, which charges a stall to
// every request queued behind it.

// generate draws n rows from s into one flat backing array, so a
// pre-generated pool costs the garbage collector two objects rather
// than one per row.
func generate(s repro.Stream, n int) (repro.Batch, error) {
	m := s.Schema().NumFeatures
	flat := make([]float64, n*m)
	b := repro.Batch{X: make([][]float64, n), Y: make([]int, n)}
	for i := range n {
		inst, err := s.Next()
		if err != nil {
			return repro.Batch{}, fmt.Errorf("generate row %d of %d: %w", i, n, err)
		}
		b.X[i] = flat[i*m : (i+1)*m : (i+1)*m]
		copy(b.X[i], inst.X)
		b.Y[i] = inst.Y
	}
	return b, nil
}

const (
	kindSingle = iota // one row, JSON, /v1/predict
	kindBatch         // 64 rows, binary, /v1/predict_batch
)

var kindNames = [2]string{"single", "batch"}

const contentTypeRows = "application/x-repro-rows"

type request struct {
	due  time.Duration // from the start of the run
	kind int
	rows []int // indices into the labelled pool
	body []byte
}

// plan is one sender's schedule: one request every period, starting at
// phase, every batchEvery-th of them a batch (never when 0).
type plan struct {
	period time.Duration
	reqs   []request
}

func makePlan(rng *rand.Rand, pool repro.Batch, window, period, phase time.Duration, batchEvery, batchRows int) plan {
	var p plan
	p.period = period
	for i := 0; ; i++ {
		due := phase + time.Duration(i)*period
		if due >= window {
			break
		}
		r := request{due: due, kind: kindSingle, rows: []int{rng.Intn(pool.Len())}}
		if batchEvery > 0 && i%batchEvery == batchEvery-1 {
			r.kind = kindBatch
			r.rows = make([]int, batchRows)
			for j := range r.rows {
				r.rows[j] = rng.Intn(pool.Len())
			}
		}
		r.body = encodeRequest(r.kind, pool, r.rows)
		p.reqs = append(p.reqs, r)
	}
	return p
}

// encodeRequest renders a single row as JSON ({"x":[...]}, shortest
// exact float form) or a batch in the binary rows format.
func encodeRequest(kind int, pool repro.Batch, rows []int) []byte {
	if kind == kindSingle {
		b := []byte(`{"x":[`)
		for j, v := range pool.X[rows[0]] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		return append(b, "]}"...)
	}
	m := len(pool.X[rows[0]])
	b := make([]byte, 8+8*m*len(rows))
	binary.LittleEndian.PutUint32(b, uint32(len(rows)))
	binary.LittleEndian.PutUint32(b[4:], uint32(m))
	off := 8
	for _, i := range rows {
		for _, v := range pool.X[i] {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
			off += 8
		}
	}
	return b
}

// errBadClass marks an answer that is not a class of the stream: an
// output check failure, not a load failure.
var errBadClass = errors.New("answer is not a class")

// decodeAnswer parses a prediction response and checks every answer
// is a valid class; want is the number of rows asked about.
func decodeAnswer(kind int, body []byte, want, classes int) ([]int, error) {
	var preds []int
	if kind == kindSingle {
		var r struct {
			Y *int `json:"y"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.Y == nil {
			return nil, fmt.Errorf("bad single answer %q", body)
		}
		preds = []int{*r.Y}
	} else {
		if len(body) < 4 {
			return nil, fmt.Errorf("short batch answer (%d bytes)", len(body))
		}
		n := int(binary.LittleEndian.Uint32(body))
		if len(body) != 4+4*n {
			return nil, fmt.Errorf("batch answer of %d bytes for %d predictions", len(body), n)
		}
		preds = make([]int, n)
		for i := range preds {
			preds[i] = int(int32(binary.LittleEndian.Uint32(body[4+4*i:])))
		}
	}
	if len(preds) != want {
		return nil, fmt.Errorf("%d answers for %d rows", len(preds), want)
	}
	for _, y := range preds {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("%w: %d of %d classes", errBadClass, y, classes)
		}
	}
	return preds, nil
}

// sender is one connection of the load generator.
type sender struct {
	url     string
	client  *http.Client
	pool    repro.Batch
	classes int
	tr      *tracer
	pace    *pacer
}

func newSender(url string, pool repro.Batch, classes int, tr *tracer) (*sender, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	return &sender{
		url:     url,
		pool:    pool,
		classes: classes,
		tr:      tr,
		pace:    pace,
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}, nil
}

func (s *sender) close() {
	s.client.CloseIdleConnections()
	s.pace.close()
}

// do sends one request and returns its checked answers.
func (s *sender) do(ctx context.Context, kind int, body []byte, want int, req int64) ([]int, error) {
	path, ct := "/v1/predict", "application/json"
	if kind == kindBatch {
		path, ct = "/v1/predict_batch", contentTypeRows
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", ct)
	if req != 0 {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return decodeAnswer(kind, raw, want, s.classes)
}

// predictRows asks about rows one kind at a time, for warm-ups and the
// end-of-run checks.
func (s *sender) predictRows(ctx context.Context, kind int, rows []int) ([]int, error) {
	return s.do(ctx, kind, encodeRequest(kind, s.pool, rows), len(rows), 0)
}

// loadStats accumulates what the senders of one run saw.
type loadStats struct {
	mu        sync.Mutex
	lat       [2][]float64 // ms from due time to answer, answered requests
	late      []float64    // ms the generator sent after it could, see run
	attempted [2]int
	failed    [2]int
	unsent    int    // due within the window, never sent
	badClass  int    // answered with something that is not a class
	badErr    string // the first such answer, for the report
	score     f1
	errs      []string // the first few failures, for the report
}

func (l *loadStats) fail(kind int, err error) {
	l.failed[kind]++
	if errors.Is(err, errBadClass) {
		if l.badClass++; l.badErr == "" {
			l.badErr = err.Error()
		}
	}
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// checkClasses fails the run's output check when any answer under load
// was not a class; such answers also count as failed requests.
func (l *loadStats) checkClasses(r *result) {
	r.check(l.badClass == 0, "%d requests under load answered with a non-class%s", l.badClass, firstErrs([]string{l.badErr}))
}

// paceLead is how long before a request's due time its sender's pacer
// wakes it; the sender yields in a loop for the rest of the way.
const paceLead = 100 * time.Microsecond

// run walks the plan from start until it ends or ctx stops it; the
// requests it never sent count as attempted, failed and unsent.
//
// A request's latency runs from its due time, so it includes any wait
// for the previous answer on the sender's one connection. Its
// lateness, the generator's own delay, runs from the later of the due
// time and that answer: a server stall shows in the latency, not as a
// generator that fell behind.
func (s *sender) run(ctx context.Context, start time.Time, p plan, st *loadStats) {
	var free time.Time // when the previous answer arrived
	for i, r := range p.reqs {
		// A sleep never outlasts the gap to the next due time, so a
		// stopped run is noticed within one send period.
		due := start.Add(r.due)
		if d := time.Until(due) - paceLead; d > 0 {
			s.pace.sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		if ctx.Err() != nil {
			st.mu.Lock()
			for _, q := range p.reqs[i:] {
				st.attempted[q.kind]++
				st.failed[q.kind]++
				st.unsent++
			}
			st.mu.Unlock()
			return
		}
		var id int64
		if s.tr != nil {
			id = s.tr.newReq()
		}
		sent := time.Now()
		preds, err := s.do(ctx, r.kind, r.body, len(r.rows), id)
		done := time.Now()
		if s.tr != nil {
			s.tr.add(span{Name: "client." + kindNames[r.kind], Layer: "client", Start: s.tr.at(sent), End: s.tr.at(done),
				Parent: -1, Req: id, N: int64(len(r.rows)), fps: []uint64{rowFP(s.pool.X[r.rows[0]])}})
		}
		st.mu.Lock()
		st.attempted[r.kind]++
		st.late = append(st.late, ms(int64(sent.Sub(laterOf(due, free)))))
		free = done
		if err != nil {
			st.fail(r.kind, err)
		} else {
			st.lat[r.kind] = append(st.lat[r.kind], ms(int64(done.Sub(due))))
			for j, y := range preds {
				st.score.add(s.pool.Y[r.rows[j]], y)
			}
		}
		st.mu.Unlock()
	}
}

// behind reports why a run's generator fell behind its schedule, or ""
// when it kept up: more than 1% of the requests never sent (a backlog
// on the connection that outlasted the run by a second), or a median
// lateness above the send period.
func (l *loadStats) behind(period time.Duration) string {
	total := l.attempted[0] + l.attempted[1]
	if l.unsent > total/100 {
		return fmt.Sprintf("generator fell behind: %d of %d scheduled requests never sent", l.unsent, total)
	}
	if late := median(l.late); late > ms(int64(period)) {
		return fmt.Sprintf("generator fell behind: median lateness %.3f ms against a %v send period", late, period)
	}
	return ""
}

func laterOf(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
