# CI entry points. `make ci` is the gate: vet + build + an arm64 vet and
# build + tests + a short race pass over the concurrency-sensitive paths
# (Scorer, Runner, registry) + short decoder fuzzes + the perfbench
# module self-test + the three dmtserve smoke tests.
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
# `make cross` vets and builds for arm64, so the portable fallbacks of
# the amd64 assembly kernels keep compiling.
# `make fuzz` runs the native fuzz targets of the untrusted decoders for
# FUZZTIME each: the checkpoint bootstrap decoder (FuzzFromCheckpoint:
# plain, sharded, racer and delta framings; every input must yield an
# error or a scorer), the binary rows request decoder
# (FuzzDecodeBinaryRows; an error or exactly the declared matrix) and
# the JSON request bodies of /v1/predict and /v1/predict_batch
# (FuzzDecodeJSONRows; a 400, or one prediction per schema-width row),
# delta chains read off arbitrary bytes and applied to a fixed base
# envelope (FuzzApplyDeltaChain; an error, or the envelope the last link
# pins, allocating no more than the input and the links' results can
# account for) and the rolling diff itself (FuzzPatchRoundTrip: applying
# makePatch(base, target) to base gives target back).
# No input may panic.
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

.PHONY: all ci vet build cross test race fuzz perfbench bench bench-all serve-smoke chaos-smoke race-smoke fmt

all: ci

ci: vet build cross test race fuzz perfbench serve-smoke chaos-smoke race-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFromCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinaryRows$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJSONRows$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDeltaChain$$' -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzPatchRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/persist

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
