// Command perfbench is the repository's end-to-end benchmark. It drives
// package repro only through its public entry points, runs one of three
// workloads (or all of them in one process), checks the outputs, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics. See README.md for the workloads and the metrics.
//
//	bash perfbench/run.sh --workload preq-wide --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 30 --trace 1
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// Exit codes: 0 when every output check passed; 1 when a check failed
// or the run could not be set up; 2 when the run was invalid (the load
// generator fell behind, or a percentile the run must report had too
// few samples), in which case no result is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload in an untraced run. Each
// workload maps its own measures onto them; see README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"f1", "f1"},
	{"latency_ms", "ms"},
	{"latency2_ms", "ms"},
}

// layers are the modules self time is attributed to.
var layers = []string{"eval", "core", "hoeffding", "serve", "persist", "server", "client"}

// layerMetrics are reported by every workload in a traced run; a metric
// whose layer the workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"core.learn_ms", "ms"}, {"core.learn_share", "share"}, {"core.predict_share", "share"},
		{"eval.other_share", "share"}, {"core.splits", "count"}, {"core.params", "count"},
		{"serve.learn_us.p50", "us"}, {"serve.learn_us.p99", "us"}, {"serve.learn_busy_share", "share"},
		{"serve.publishes_per_batch", "1/batch"},
		{"serve.checkpoint_ms", "ms"}, {"serve.checkpoint_count", "count"}, {"serve.checkpoint_kb", "kB"},
		{"follow.idle_ms", "ms"}, {"server.respond_ms", "ms"}, {"server.transfer_ms", "ms"},
		{"server.wire_kb", "kB"}, {"follow.apply_ms", "ms"}, {"serve.restore_ms", "ms"},
		{"server.delta_saving", "share"},
		{"follow.fetches", "count"}, {"follow.installs", "count"}, {"follow.delta_installs", "count"},
		{"follow.delta_fallbacks", "count"}, {"follow.errors", "count"}, {"follow.versions_per_install", "1/install"},
	}
	for _, m := range []string{"server.handler_us", "server.wait_us", "serve.predict_us", "client.net_us"} {
		for _, k := range kindNames {
			ms = append(ms, metricDef{m + "." + k, "us"})
		}
	}
	ms = append(ms,
		metricDef{"server.coalesce_rows", "1/batch"}, metricDef{"server.rejected", "count"},
		metricDef{"server.queue_depth_max", "count"}, metricDef{"client.late_p99_ms", "ms"})
	for _, l := range layers {
		ms = append(ms, metricDef{"self." + l + "_share", "share"})
	}
	for _, m := range e2eMetrics {
		ms = append(ms, metricDef{"overhead." + m.name, m.unit})
	}
	return ms
}()

type options struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in untraced runs
}

// result is what one measured pass of a workload produced.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	lines     []string
	attempted int
	failed    int
	failures  []string // output checks that failed
	invalid   []string // reasons the run cannot be reported
	window    time.Duration
	spans     []span
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records a failed output check unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// gate names the end-to-end metric a quantile of a timing fills.
type gate struct {
	metric string
	q      float64
}

// timing reports a latency sample under the workload's own name, with
// its median, p90, highest supported percentile and sample count, and
// fills the end-to-end metrics its gates name. A run too short for the
// sample's p99 is invalid.
func (r *result) timing(name string, xs []float64, gates ...gate) {
	d := summarize(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	line := fmt.Sprintf("%-22s %s ms", name, d)
	for _, g := range gates {
		r.e2e[g.metric] = quantile(s, g.q)
		line += fmt.Sprintf("  [%s: p%g = %.4g]", g.metric, 100*g.q, r.e2e[g.metric])
	}
	r.lines = append(r.lines, line)
	if !d.supports(0.99) {
		r.invalid = append(r.invalid, fmt.Sprintf("%s: %d samples cannot support a p99", name, d.N))
	}
}

// instance is a workload after set-up, ready to measure once.
type instance interface {
	measure(ctx context.Context) *result
	close()
}

type workload struct {
	name  string
	setup func(ctx context.Context, o options) (instance, error)
}

var workloads = []workload{
	{"preq-wide", setupPreq},
	{"pipeline", setupPipeline},
	{"predict-load", setupPredictLoad},
}

// spansDir is where traced runs write their spans, inside the checkout.
const spansDir = ".bench_out"

// setupsPerRun is how many times an untraced run sets up; setup_s is
// the median.
const setupsPerRun = 5

// runPass sets the workload up `setups` times, keeps the last instance
// and measures it.
func runPass(ctx context.Context, w workload, o options, setups int) (*result, error) {
	var inst instance
	var times []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			// Drop the previous instance before collecting, so each
			// set-up reuses its predecessor's memory rather than
			// faulting in a fresh heap.
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, o); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := inst.measure(ctx)
	runtime.ReadMemStats(&m1)
	r.linef("%-22s %d GC cycles, %.1f ms of pauses, %.0f MB heap in use at the end", "go runtime",
		m1.NumGC-m0.NumGC, ms(int64(m1.PauseTotalNs-m0.PauseTotalNs)), float64(m1.HeapInuse)/1e6)
	r.e2e["setup_s"] = median(times)
	r.lines = append([]string{fmt.Sprintf("%-22s %.4f s, median of %.3f  [setup_s]", "setup_s", median(times), times)}, r.lines...)
	return r, nil
}

// runWorkload makes an untraced pass and, when traced, a second pass
// with spans on. End-to-end numbers come from the untraced pass only;
// the traced pass gives the per-layer numbers and the tracing overhead.
func runWorkload(ctx context.Context, w workload, seed int64, seconds time.Duration, traced bool, dir string) (*result, error) {
	setups := setupsPerRun
	if traced {
		setups = 1
	}
	base, err := runPass(ctx, w, options{seed: seed, seconds: seconds}, setups)
	if err != nil || !traced {
		return base, err
	}
	tr := newTracer()
	t, err := runPass(ctx, w, options{seed: seed, seconds: seconds, tr: tr}, 1)
	if err != nil {
		return nil, err
	}
	t.spans = tr.snapshot()
	children, _ := link(t.spans)
	self := selfTimes(t.spans, children)
	for _, l := range layers {
		t.layer["self."+l+"_share"] = share(float64(self[l]), float64(t.window))
	}
	for _, m := range e2eMetrics {
		t.layer["overhead."+m.name] = t.e2e[m.name] - base.e2e[m.name]
	}
	t.linef("tracing: %d spans (%d dropped); self time per layer over the %v window:", len(t.spans), tr.dropped, t.window)
	for _, l := range layers {
		t.linef("  %-10s %8.1f ms  (%.3f of the window)", l, ms(self[l]), t.layer["self."+l+"_share"])
	}
	path, err := dumpSpans(dir, fmt.Sprintf("%s-seed%d", w.name, seed), t.spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	t.linef("spans written to %s", path)
	// The traced result carries both passes' checks and lines; its e2e
	// values are the untraced ones.
	t.lines = append(append(append([]string{"-- untraced pass"}, base.lines...), "-- traced pass"), t.lines...)
	t.failures = append(base.failures, t.failures...)
	t.invalid = append(base.invalid, t.invalid...)
	t.attempted += base.attempted
	t.failed += base.failed
	t.e2e = base.e2e
	return t, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as --out stores it, stamped with the host.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     Host    `json:"host"`
	resultLine
}

// metricsOf picks the metrics a run reports: every e2e metric when
// untraced, every per-layer metric when traced.
func metricsOf(r *result, traced bool) map[string]metricValue {
	defs, vals := e2eMetrics, r.e2e
	if traced {
		defs, vals = layerMetrics, r.layer
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{v, d.unit}
	}
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain("BENCHMARK.json", os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "preq-wide, pipeline, predict-load, or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 15, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics and tracing overhead")
		out     = flag.String("out", "", "append one JSON record per workload run to this file")
	)
	flag.Parse()
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload preq-wide|pipeline|predict-load|all, --seconds > 0, --trace 0|1\n")
		os.Exit(1)
	}
	traced := *trace == 1
	host := fingerprint(".")
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	final := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	var records []record
	ctx := context.Background()
	for _, w := range selected {
		fmt.Printf("== %s  seed %d  %gs  trace %d\n", w.name, *seed, *seconds, *trace)
		r, err := runWorkload(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), traced, spansDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		for _, l := range r.lines {
			fmt.Println("  " + l)
		}
		for _, f := range r.failures {
			fmt.Printf("  CHECK FAILED: %s\n", f)
		}
		if len(r.invalid) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: invalid run, not reported: %s\n", w.name, strings.Join(r.invalid, "; "))
			os.Exit(2)
		}
		line := resultLine{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metricsOf(r, traced)}
		if traced {
			names := make([]string, 0, len(line.Metrics))
			for n := range line.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Println("  per-layer metrics:")
			for _, n := range names {
				fmt.Printf("    %-30s %.6g %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
			}
		}
		records = append(records, record{w.name, *seed, *seconds, traced, host, line})
		final.Correct = final.Correct && line.Correct
		final.Attempted += line.Attempted
		final.Failed += line.Failed
		for n, v := range line.Metrics {
			if len(selected) > 1 {
				n = w.name + "." + n
			}
			final.Metrics[n] = v
		}
	}
	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	fj, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(fj))
	if !final.Correct {
		os.Exit(1)
	}
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
