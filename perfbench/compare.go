package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain compares two sets of run records written by --out: per
// workload and end-to-end metric, each side's median and quartiles and
// the change against the metric's bound in benchPath. It refuses to
// compare records from hosts with different fingerprints, or from runs
// of different lengths. Exit code: 0 no regression, 1 a regression
// beyond its bound, 2 not comparable.
func compareMain(benchPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	old, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	cur, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	ref := old[0]
	for _, r := range append(append([]record(nil), old...), cur...) {
		if !sameHost(ref.Host, r.Host) {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare across host fingerprints:\n  %+v\n  %+v\n", ref.Host, r.Host)
			return 2
		}
		if r.Seconds != ref.Seconds {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare runs of %gs and %gs\n", ref.Seconds, r.Seconds)
			return 2
		}
	}
	var def struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &def)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: bounds:", err)
		return 2
	}
	values := func(recs []record, w, m string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == w && !r.Trace {
				if v, ok := r.Metrics[m]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range cur {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Printf("%-13s %-12s %12s %12s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, w := range names {
		for _, m := range def.EndToEnd {
			o, n := values(old, w, m.Name), values(cur, w, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			change := share(nm-om, om)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			if worse > m.Bound {
				verdict, code = "REGRESSION", 1
			} else if worse < 0 && allBetter(o, n, m.Better) {
				verdict = "better in every run"
			}
			fmt.Printf("%-13s %-12s %12.5g %12.5g %+8.2f%% %6.0f%%  %s (old IQR %.1f%%, new IQR %.1f%%, runs %d/%d)\n",
				w, m.Name, om, nm, 100*change, 100*m.Bound, verdict, 100*iqrShare(o), 100*iqrShare(n), len(o), len(n))
		}
	}
	return code
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, better string) bool {
	lo, hi := minMax(old)
	clo, chi := minMax(cur)
	if better == "higher" {
		return clo > hi
	}
	return chi < lo
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// iqrShare is the distance between the quartiles as a share of the
// median.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return share(quantile(s, 0.75)-quantile(s, 0.25), quantile(s, 0.5))
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}
