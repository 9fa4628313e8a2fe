package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
)

// TestWorkloadsTiny runs every workload, traced, for a moment each: the
// output checks must pass and every declared metric must be reported.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up all three workloads")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(context.Background(), w, 7, time.Second, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(r.failures) > 0 {
				t.Fatalf("output checks failed: %v", r.failures)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
			}
			for _, m := range e2eMetrics {
				if v := r.e2e[m.name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, v)
				}
			}
			if got := len(metricsOf(r, true)); got != len(layerMetrics) {
				t.Errorf("traced run reports %d metrics, want %d", got, len(layerMetrics))
			}
			if len(r.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestNonClassUnderLoadFailsRun serves answers of class 7 to a
// two-class sender: the run must report correct:false, not just count
// failed requests.
func TestNonClassUnderLoadFailsRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"y":7}`))
	}))
	defer srv.Close()
	pool := repro.Batch{X: [][]float64{{0.5, 0.5}}, Y: []int{1}}
	s, err := newSender(srv.URL, pool, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p := makePlan(rand.New(rand.NewSource(1)), pool, 50*time.Millisecond, 10*time.Millisecond, 0, 0, 1)
	st := &loadStats{}
	s.run(context.Background(), time.Now(), p, st)
	r := newResult()
	st.checkClasses(r)
	if st.badClass != len(p.reqs) || st.failed[kindSingle] != len(p.reqs) {
		t.Errorf("%d requests: %d non-class answers, %d failed", len(p.reqs), st.badClass, st.failed[kindSingle])
	}
	if len(r.failures) == 0 {
		t.Fatal("non-class answers under load passed the output checks")
	}
}

// TestServerStallIsLatencyNotLateness stalls the first answer for 25
// of the run's 40 send periods: the requests queued behind it must
// carry the wait in their latency, while the generator's own lateness
// stays small and the run stays valid.
func TestServerStallIsLatencyNotLateness(t *testing.T) {
	const period, stall = 5 * time.Millisecond, 125 * time.Millisecond
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte(`{"y":1}`))
	}))
	defer srv.Close()
	pool := repro.Batch{X: [][]float64{{0.5, 0.5}}, Y: []int{1}}
	s, err := newSender(srv.URL, pool, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p := makePlan(rand.New(rand.NewSource(1)), pool, 40*period, period, 0, 0, 1)
	st := &loadStats{}
	s.run(context.Background(), time.Now(), p, st)
	if st.failed[kindSingle] != 0 {
		t.Fatalf("%d requests failed: %v", st.failed[kindSingle], st.errs)
	}
	if lat := st.lat[kindSingle][1]; lat < ms(int64(stall-2*period)) {
		t.Errorf("the request queued behind the stall took %.2f ms from its due time, want about %v", lat, stall-period)
	}
	if why := st.behind(period); why != "" {
		t.Errorf("a server stall made the generator fall behind: %s", why)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	if d.TailName != "p99" || !d.supports(0.99) || d.supports(0.999) {
		t.Fatalf("1000 samples: tail %q, supports p99 %v, p99.9 %v", d.TailName, d.supports(0.99), d.supports(0.999))
	}
	if d.P50 != 500.5 {
		t.Errorf("median = %v, want 500.5", d.P50)
	}
	if d := summarize(xs[:99]); d.TailName != "" {
		t.Errorf("99 samples support %s, want none", d.TailName)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "server.single", Layer: "server", Start: 0, End: 100, Parent: -1},
		{Name: "serve.predict", Layer: "serve", Start: 40, End: 60, Parent: 0},
		{Name: "serve.predict", Layer: "serve", Start: 50, End: 70, Parent: 0},
	}
	children, _ := link(spans)
	self := selfTimes(spans, children)
	if self["server"] != 70 || self["serve"] != 40 {
		t.Fatalf("self times %v, want server 70 (overlapping children merged) and serve 40", self)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	seconds := 20.0
	write := func(name string, h Host) string {
		p := filepath.Join(dir, name)
		if err := appendRecords(p, []record{{Workload: "preq-wide", Seconds: seconds, Host: h}}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := Host{CPU: "a", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "x"}
	b := a
	b.Commit = "y"
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain(bench, []string{write("a", a), write("b", b)}); code != 0 {
		t.Errorf("same host, other commit: exit %d, want 0", code)
	}
	old := write("a2", a)
	seconds = 5
	if code := compareMain(bench, []string{old, write("short", b)}); code != 2 {
		t.Errorf("other run length: exit %d, want 2", code)
	}
	seconds = 20
	b.NProc = 4
	if code := compareMain(bench, []string{old, write("c", b)}); code != 2 {
		t.Errorf("other host: exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// runs report in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the runs report %d", what, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the runs report %s (%s)", what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, e2eMetrics)
	same("per_layer", def.PerLayer, layerMetrics)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, want %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, want %q", i, def.Workloads[i].Name, w.name)
		}
	}
}
