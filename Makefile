GO ?= go

# Recipes pipe gate output through tee into bench_diff.txt; without pipefail
# the pipe would swallow a failing gate's exit status.
SHELL = /bin/bash -o pipefail

.PHONY: build test coverage bench bench-forward bench-serve verify-bench verify-bench-serve verify-chaos verify-scenario verify-shard verify-obs verify-fault verify-serve fuzz-smoke lint loc

BENCH_FORWARD = -run '^$$' -bench 'BenchmarkForward|BenchmarkKernelReference' \
	-benchtime 1s -count 5 . ./internal/tensor

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled full-suite run with a coverage gate (run by the build-and-test CI
# job): -shuffle=on breaks hidden inter-test ordering dependencies, and total
# statement coverage must hold the recorded floor (79.2% measured when the
# floor was set; the slack absorbs run-to-run jitter from timing-dependent
# paths). The profile lands in coverage.out, which CI uploads as an artifact.
COVER_FLOOR = 75.0
coverage:
	$(GO) test -shuffle=on -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' \
		|| { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem

# Re-record the committed forward-throughput baseline: single-window vs
# micro-batched inference (float and int8) plus the frozen kernel anchor
# benchmark that cmd/benchdiff normalises against across machines.
bench-forward:
	$(GO) test $(BENCH_FORWARD) | tee /tmp/bench_forward.txt
	$(GO) run ./cmd/benchdiff extract -o BENCH_forward.json /tmp/bench_forward.txt

# Benchmark-regression gate (run by the bench-regression CI job): re-run the
# forward benchmarks, diff against the committed baseline (anchor-relative,
# 15% threshold, report in bench_diff.txt), then enforce the per-window
# speedup bars at batch 16: >=2x for the float batched path and >=3x for the
# int8 hot path, both against the float single-window baseline.
verify-bench:
	$(GO) test $(BENCH_FORWARD) > /tmp/bench_forward_new.txt
	$(GO) run ./cmd/benchdiff extract -o /tmp/BENCH_forward_new.json /tmp/bench_forward_new.txt
	$(GO) run ./cmd/benchdiff compare -o bench_diff.txt BENCH_forward.json /tmp/BENCH_forward_new.json
	$(GO) run ./cmd/benchdiff verify -min 2.0 -min-int8 3.0 /tmp/BENCH_forward_new.json

# Re-record the committed serve-side wire baseline: one loadgen report per
# payload mode (JSON votes, JSON windows, binary stream) over the same
# (users, requests, seed) grid, merged into BENCH_serve.json. Uses the real
# MHEALTH fleet; set ORIGIN_CACHE to reuse a warm model cache.
SERVE_GRID = -users 16 -requests 200 -seed 1
bench-serve:
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -mode votes -json /tmp/serve_votes.json
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -mode windows -json /tmp/serve_windows.json
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -mode stream -json /tmp/serve_stream.json
	$(GO) run ./cmd/benchdiff serve-extract -o BENCH_serve.json \
		/tmp/serve_votes.json /tmp/serve_windows.json /tmp/serve_stream.json
	$(GO) run ./cmd/benchdiff serve-verify BENCH_serve.json

# Serve wire-bytes gate (run by the bench-regression CI job): re-run the
# windows and stream loadgen grids on tiny deterministic models (fast; the
# wire format does not depend on model weights), then enforce >=10x fewer
# uplink bytes per classification than JSON windows at equal accuracy. The
# committed BENCH_serve.json is verified too, so the recorded real-model
# numbers cannot rot below the bar. Appends to the bench_diff.txt report
# that verify-bench starts.
verify-bench-serve:
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -tiny-model -mode windows -json /tmp/serve_windows_tiny.json
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -tiny-model -mode stream -json /tmp/serve_stream_tiny.json
	$(GO) run ./cmd/benchdiff serve-extract -o /tmp/BENCH_serve_tiny.json \
		/tmp/serve_windows_tiny.json /tmp/serve_stream_tiny.json
	$(GO) run ./cmd/benchdiff serve-verify /tmp/BENCH_serve_tiny.json | tee -a bench_diff.txt
	$(GO) run ./cmd/benchdiff serve-verify BENCH_serve.json | tee -a bench_diff.txt
	$(GO) test -race -run 'TestStreamLoadgenMatchesSerialReplay' ./internal/fleet

# Every resilience drill below is an origin-scenario run held to one verdict,
# benchdiff slo-verify: zero lost rounds, zero double classifications, 100%
# resume success, an availability floor and a shed-rate bound, non-vacuity
# read from the report's own plan (a chaos phase must reconnect, a pressure
# phase must shed, a planned kill must execute and migrate a session, a
# planned join must execute), and byte-identical canonical sections across
# the two same-seed runs of each drill.

# Connection-chaos gate (run by the chaos-smoke CI job): the committed drill
# spec — 8 stream-only wearers, every connection killed after a seeded
# uplink-byte budget — twice under -race on tiny deterministic models, the
# first run also replay-verified (every lineage's classifications
# byte-identical to serial execution despite the kills). The drill paces
# rounds 90 ms apart like a duty-cycled wearable: availability's denominator
# is wall time including idle, and a flat-out drill has so little wall that
# ~30 reconnect handshakes alone would eat the 1% budget. The replay/resume
# regression tests ride along.
CHAOS_DRILL = internal/scenario/testdata/chaos_drill.json
verify-chaos:
	$(GO) run -race ./cmd/origin-scenario -spec $(CHAOS_DRILL) -tiny -verify-replay -o /tmp/slo_chaos.json
	$(GO) run -race ./cmd/origin-scenario -spec $(CHAOS_DRILL) -tiny -o /tmp/slo_chaos_rerun.json
	$(GO) run ./cmd/benchdiff slo-verify /tmp/slo_chaos.json /tmp/slo_chaos_rerun.json | tee -a bench_diff.txt
	$(GO) test -race -run 'TestStreamChaos|TestStreamResume' ./internal/fleet ./internal/serve

# Scenario-SLO gate (run by the scenario-smoke CI job): the built-in chaos
# day (churn, drift, forced shed, kill-everything chaos) twice under -race
# on tiny deterministic models, the first run also replay-verified — faults
# change timing, never decisions. The calm day then proves live ≡ serial
# replay on the zero-fault path, and the scenario package's own acceptance
# tests ride along.
verify-scenario:
	$(GO) run -race ./cmd/origin-scenario -scenario day -seed 7 -tiny -verify-replay -o /tmp/slo_day.json
	$(GO) run -race ./cmd/origin-scenario -scenario day -seed 7 -tiny -o /tmp/slo_day_rerun.json
	$(GO) run ./cmd/benchdiff slo-verify /tmp/slo_day.json /tmp/slo_day_rerun.json | tee -a bench_diff.txt
	$(GO) run -race ./cmd/origin-scenario -scenario calm -seed 7 -tiny -verify-replay -o /dev/null
	$(GO) test -race ./internal/scenario

# Shard gate (run by the shard-smoke CI job): the built-in shard day — a
# mid-run replica crash plus a mid-run join over a 3-replica cluster behind
# the consistent-hash router, every lineage on the binary stream front —
# twice under -race with the first run also replay-verified against
# single-node serial execution. The pair's byte-identical canonical sections
# show shard topology never reaches a classification. The shard day keeps
# its 0.9 availability floor: a replica kill severs every stream spliced
# through it at once. The cluster kill-drill and session-migration
# regression tests ride along.
verify-shard:
	$(GO) run -race ./cmd/origin-scenario -scenario shard -seed 13 -replicas 3 -tiny -verify-replay -o /tmp/slo_shard.json
	$(GO) run -race ./cmd/origin-scenario -scenario shard -seed 13 -replicas 3 -tiny -o /tmp/slo_shard_rerun.json
	$(GO) run ./cmd/benchdiff slo-verify -min-availability 0.9 /tmp/slo_shard.json /tmp/slo_shard_rerun.json | tee -a bench_diff.txt
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'TestShard|TestStreamStoreResume|TestStreamAttachment|TestManagerMigration|TestSessionCodec|TestStateStore' \
		./internal/scenario ./internal/serve ./internal/fleet

# Formatting and static analysis, mirroring the CI lint job. staticcheck is
# optional locally (the CI job installs it); gofmt failures list the files.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Lines of Go, non-test and test, outside the benchmark harness and its
# build directory: the figures a change that simplifies reports its delta in.
LOC_FIND = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*'
loc:
	@echo "non-test Go lines: $$($(LOC_FIND) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(LOC_FIND) -name '*_test.go' | xargs cat | wc -l)"

# Focused verification for the telemetry/concurrency layers: vet everything,
# then race-test the packages the run telemetry and worker pool touch.
verify-obs:
	$(GO) vet ./...
	$(GO) test -race ./internal/obs ./internal/sim ./internal/host

# Focused verification for the fault-injection/defense layers: vet
# everything, then race-test every package the injectors and defenses touch.
verify-fault:
	$(GO) vet ./...
	$(GO) test -race ./internal/comm ./internal/fault ./internal/host \
		./internal/schedule ./internal/sensor ./internal/sim ./internal/obs

# Focused verification for the serving stack: vet everything, then
# race-test the session manager, HTTP layer, load generator, and the
# shared-state packages they clone from (ensemble matrix, telemetry).
verify-serve:
	$(GO) vet ./...
	$(GO) test -race ./internal/fleet ./internal/serve ./internal/loadgen \
		./internal/ensemble ./internal/obs

# Short fuzz pass over every decoder of untrusted bytes (go test allows one
# -fuzz target per invocation, so they run back to back): the fixed-size
# uplink records, the variable-length stream frames, the session snapshot
# codec, the binary confidence matrix and the session-log file reader.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeResult -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzDecodeActivation -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzDecodeStreamFrame -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzIMURoundTrip -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzDecodeSessionState -fuzztime=5s ./internal/fleet
	$(GO) test -fuzz=FuzzDecodeBinaryMatrix -fuzztime=5s ./internal/ensemble
	$(GO) test -fuzz=FuzzFileStateStoreLoad -fuzztime=5s ./internal/fleet
