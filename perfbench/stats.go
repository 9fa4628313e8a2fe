package main

import (
	"fmt"
	"math"
	"sort"
)

// dist summarises a sample of timings: its p10, its median, its 0.99
// quantile and the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it (the highest percentile the sample supports).
type dist struct {
	N        int
	P10      float64
	P50      float64
	P90      float64
	P99      float64
	Tail     float64
	TailName string // "" when not even p90 is supported
}

var tails = []struct {
	name string
	q    float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P10: quantile(s, 0.1), P50: quantile(s, 0.5), P90: quantile(s, 0.9), P99: quantile(s, 0.99)}
	for _, t := range tails {
		if d.supports(t.q) {
			d.Tail, d.TailName = quantile(s, t.q), t.name
			break
		}
	}
	return d
}

// supports reports whether the sample has at least ten values beyond
// the q quantile.
func (d dist) supports(q float64) bool { return float64(d.N)*(1-q) >= 10-1e-9 }

func (d dist) String() string {
	tail := "no tail percentile supported"
	if d.TailName != "" {
		tail = fmt.Sprintf("%s %.4g", d.TailName, d.Tail)
	}
	if d.TailName != "p90" && d.TailName != "" {
		tail = fmt.Sprintf("p90 %.4g, %s", d.P90, tail)
	}
	return fmt.Sprintf("p10 %.4g, p50 %.4g, %s (n=%d)", d.P10, d.P50, tail, d.N)
}

// quantile interpolates linearly between the closest ranks of a sorted
// sample; an empty sample yields 0.
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// share divides safely: 0 when the base is 0.
func share(part, base float64) float64 {
	if base == 0 {
		return 0
	}
	return part / base
}

// f1 is binary F1 with class 1 as the positive class, the measure the
// paper uses for two-class streams.
type f1 struct{ tp, fp, fn, n int }

func (c *f1) add(y, pred int) {
	c.n++
	switch {
	case pred == 1 && y == 1:
		c.tp++
	case pred == 1:
		c.fp++
	case y == 1:
		c.fn++
	}
}

func (c *f1) value() float64 {
	return share(2*float64(c.tp), float64(2*c.tp+c.fp+c.fn))
}
