package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded from outside the
// program by the benchmark's wrappers. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: none
	Req    int64  `json:"req,omitempty"`
	N      int64  `json:"n,omitempty"` // rows or bytes, per span name
	// fps fingerprints the rows a predict call saw (or the first row of
	// a client request), to match predict calls to requests.
	fps []uint64
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the memory a traced run may hold.
const maxSpans = 4 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64 // request IDs, shared by every sender of the run
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request ID.
func (t *tracer) newReq() int64 { return t.ids.Add(1) }

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// add stores s and returns its ID (-1 when the span budget is spent).
// Callers set s.Parent, -1 when the span has none.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// rowFP fingerprints one row by its bit pattern.
func rowFP(x []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// serving holds the per-request-kind breakdown recovered by linking
// client, handler and predict spans.
type serving struct {
	handlerUs, waitUs, predictUs, netUs map[string][]float64
}

// link assigns parents the wrappers could not know when they recorded
// (a handler to its client request, a predict call to the handler it
// served, a checkpoint to the envelope request that captured it) and
// returns every parent→children edge plus the serving breakdown. A
// coalesced predict call serves several handlers, so a child may have
// more than one parent.
func link(spans []span) (map[int][]int, serving) {
	children := map[int][]int{}
	edge := func(p, c int) {
		children[p] = append(children[p], c)
		if spans[c].Parent < 0 {
			spans[c].Parent = p
		}
	}
	byReq := map[int64]int{}
	var predicts, envelopes, checkpoints []int
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		switch s.Name {
		case "client.single", "client.batch", "follow.fetch":
			byReq[s.Req] = i
		case "serve.predict":
			predicts = append(predicts, i)
		case "server.envelope":
			envelopes = append(envelopes, i)
		case "serve.checkpoint":
			checkpoints = append(checkpoints, i)
		}
	}
	sort.Slice(predicts, func(a, b int) bool { return spans[predicts[a]].Start < spans[predicts[b]].Start })
	sv := serving{map[string][]float64{}, map[string][]float64{}, map[string][]float64{}, map[string][]float64{}}
	for i, h := range spans {
		if h.Layer != "server" || h.Req == 0 {
			continue
		}
		ci, ok := byReq[h.Req]
		if !ok {
			continue
		}
		edge(ci, i)
		kind := ""
		switch h.Name {
		case "server.single":
			kind = "single"
		case "server.batch":
			kind = "batch"
		default:
			continue
		}
		c := spans[ci]
		sv.handlerUs[kind] = append(sv.handlerUs[kind], us(h.dur()))
		sv.netUs[kind] = append(sv.netUs[kind], us(c.dur()-h.dur()))
		if len(c.fps) == 0 {
			continue
		}
		fp := c.fps[0]
		k := sort.Search(len(predicts), func(j int) bool { return spans[predicts[j]].Start >= h.Start })
		for ; k < len(predicts) && spans[predicts[k]].Start <= h.End; k++ {
			p := spans[predicts[k]]
			if p.End > h.End || !contains(p.fps, fp) {
				continue
			}
			edge(i, predicts[k])
			sv.predictUs[kind] = append(sv.predictUs[kind], us(p.dur()))
			sv.waitUs[kind] = append(sv.waitUs[kind], us(h.dur()-p.dur()))
			break
		}
	}
	for _, c := range checkpoints {
		for _, e := range envelopes {
			if spans[e].Start <= spans[c].Start && spans[c].End <= spans[e].End {
				edge(e, c)
				break
			}
		}
	}
	return children, sv
}

func contains(xs []uint64, x uint64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// selfTimes returns each layer's self time in nanoseconds: the sum over
// its spans of the span's duration minus the part its children cover.
func selfTimes(spans []span, children map[int][]int) map[string]int64 {
	out := map[string]int64{}
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64 = 0, math.MinInt64
		for _, v := range iv {
			if v[0] > end {
				covered += v[1] - v[0]
				end = v[1]
			} else if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		out[s.Layer] += s.dur() - covered
	}
	return out
}

// dumpSpans writes the spans as JSON lines to dir/spans-<name>.jsonl.
func dumpSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
