# CI entry points. `make ci` is the gate: vet + build + tests + a short
# race pass over the concurrency-sensitive paths (Scorer, Runner,
# registry) + a short decoder fuzz + the perfbench module self-test +
# the three dmtserve smoke tests.
#
# `make bench` runs the Benchmark*Op hot-path micro-benchmarks with
# -benchmem and writes BENCH_PR10.json (ns/op, B/op, allocs/op and
# custom metrics — the server load benchmarks report p50-ns/p99-ns/qps,
# the depth-sweep checkpoint benchmarks report ckpt-bytes/delta-bytes —
# per benchmark, joined with the baseline recorded before the PR-10
# model-racing work in bench/BASELINE_PR10.txt, plus the BENCH_PR2..PR9
# history as a cross-PR trend table), so the perf trajectory is tracked
# PR over PR.
# `make bench-all` additionally replays the full table/figure
# reproduction benchmarks.
# `make serve-smoke` runs the dmtserve self-test: an in-process
# prediction server under live training, a few hundred requests across
# both endpoints with one hot model swap mid-traffic, zero tolerated
# errors.
# `make chaos-smoke` runs the fault-tolerance self-test: a replica
# follows an in-process trainer through ~35% seeded injected faults
# (drops, resets, 5xx/429, truncated envelopes) and must converge to
# the trainer's final envelope version while a prediction hammer on the
# replica tolerates zero errors. The follower is delta-seeded, so the
# run also exercises ?since= delta chains (and their full-envelope
# fallback) under fault injection.
# `make fuzz` runs the checkpoint bootstrap decoder's native fuzz target
# (FuzzFromCheckpoint: plain, sharded, racer and delta framings) for
# FUZZTIME; every input must yield an error or a scorer, never a panic.
# `make perfbench` vets and self-tests the nested benchmark module
# (perfbench/, its own go.mod), which the root `./...` patterns skip, so
# a facade change that breaks the benchmark fails the gate.
# `make race-smoke` runs the model-racing self-test: a three-arm race
# trainer (race:glm,vfdt,nb) learns a recurring-drift stream under a
# prediction hammer; the leader must change at least once, /statusz must
# carry the per-arm scoreboard, and zero requests may fail.

GO ?= go
BENCH_TXT ?= /tmp/repro_bench_current.txt
BENCHTIME ?= 1s
CHAOS_SPEC ?= drop@0.15,reset@0.05,status=503@0.05,status=429@0.02,truncate=512@0.1
CHAOS_SEED ?= 7
FUZZTIME ?= 10s

.PHONY: all ci vet build test race fuzz perfbench bench bench-all serve-smoke chaos-smoke race-smoke fmt

all: ci

ci: vet build test race fuzz perfbench serve-smoke chaos-smoke race-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFromCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/serve

perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench 'Op$$' -benchmem -benchtime $(BENCHTIME) ./... > $(BENCH_TXT)
	@cat $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -new $(BENCH_TXT) -old bench/BASELINE_PR10.txt \
		-history BENCH_PR2.json,BENCH_PR3.json,BENCH_PR4.json,BENCH_PR5.json,BENCH_PR6.json,BENCH_PR8.json,BENCH_PR9.json -out BENCH_PR10.json
	@echo "wrote BENCH_PR10.json"

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

serve-smoke:
	$(GO) run ./cmd/dmtserve -smoke

chaos-smoke:
	$(GO) run ./cmd/dmtserve -smoke -chaos '$(CHAOS_SPEC)' -chaos-seed $(CHAOS_SEED)

race-smoke:
	$(GO) run ./cmd/dmtserve -smoke -model 'race:glm,vfdt,nb'

fmt:
	gofmt -l .
