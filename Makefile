# FrameFeedback reproduction — common entry points.

GO ?= go

.PHONY: all build test race chaos bench bench-all benchdiff benchpair profile smoke soak trace-smoke fleet-smoke experiments report clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the concurrent code paths: the real TCP transport, the
# loadgen mux that shares its pooled decoder, and the parallel
# sweep/replication engine.
race:
	$(GO) test -race ./internal/realnet/ ./internal/netproto/ ./internal/loadgen/ ./internal/parfan/
	$(GO) test -race -run 'Parallel|Replicate|RunPolicies' ./internal/scenario/

# Chaos gate: replay the seeded random fault plans under the race
# detector with the run-time invariant checker armed, run the cluster
# kill-1-of-8 resilience experiment the same way, then fuzz short
# faulted scenarios for determinism and invariant violations.
# FUZZTIME matches the CI chaos-smoke job; raise it for deeper local
# hunts, e.g. `make chaos FUZZTIME=5m`.
FUZZTIME ?= 20s
chaos:
	$(GO) run -race ./cmd/ffexperiments -exp chaos -invariants
	$(GO) run -race ./cmd/ffexperiments -exp cluster -invariants
	$(GO) test -run '^$$' -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) ./internal/scenario/

# Tier-1 perf baseline: scheduler churn + full-scenario benches and
# whole-suite wall clock, written to BENCH_<date>.json. Override e.g.
# `make bench BENCHTIME=1x REPS=1` for a CI smoke run.
BENCHTIME ?= 2s
PARALLEL ?= 4
REPS ?= 3
OUT ?=
bench:
	BENCHTIME=$(BENCHTIME) PARALLEL=$(PARALLEL) REPS=$(REPS) OUT=$(OUT) bash scripts/bench.sh

# Every benchmark in the tree — one per paper table/figure plus
# substrate micro-benches.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Compare a fresh bench run against the committed baseline and fail on
# allocs/op or B/op regressions >10% (ns/op is report-only: CI timing
# is noisy, but allocation counts are deterministic per run). Override
# BASELINE/CURRENT to diff arbitrary snapshots.
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
CURRENT ?= bench-ci.json
benchdiff:
	$(GO) run ./scripts $(BASELINE) $(CURRENT)

# Paired runs of the repository benchmark (benchmark/, BENCHMARK.json)
# against a parent commit: ten alternated pairs, per-metric medians,
# wins of N and bound verdicts, e.g.
# `make benchpair PARENT=HEAD~1 WORKLOADS="wire_closed fleet_tablev"`
# (CHANGE=worktree compares uncommitted work).
PARENT ?= HEAD~1
WORKLOADS ?= fleet_tablev paper_suite wire_paced wire_closed soak_fleet
benchpair:
	bash scripts/benchpair.sh $(PARENT) $(WORKLOADS)

# CPU profile of one full 100k-device fleet run, for pprof inspection
# (`go tool pprof fleet-cpu.pprof`). The fleet-smoke CI job uploads the
# profile as an artifact so hot-path changes can be diffed without
# rerunning locally.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetRun$$' -benchtime 1x -timeout 30m -cpuprofile fleet-cpu.pprof .

# Boot the real closed loop with telemetry enabled and scrape every
# debug endpoint (see scripts/telemetry_smoke.sh).
smoke:
	bash scripts/telemetry_smoke.sh

# Real-network soak: an ffloadgen fleet offloading through
# ffscenariod's fault proxy to an ffserver child, with each scenario
# walked through stabilize -> inject -> recover and judged by the
# fleet reconverging into the [0.05, 0.15]*F_s band (see
# scripts/soak.sh). Tune e.g. `make soak SOAK_DEVICES=1000
# SOAK_SCENARIOS=server_crash,link_partition`.
SOAK_DEVICES ?= 400
SOAK_SCENARIOS ?= server_crash,gpu_stall,link_partition,link_latency
soak:
	SOAK_DEVICES=$(SOAK_DEVICES) SOAK_SCENARIOS=$(SOAK_SCENARIOS) bash scripts/soak.sh

# Tracing gate: run the critical-path experiment with a span trace
# attached (the in-run check asserts per-stage durations tile every
# successful offload's end-to-end latency exactly), then validate the
# exported Chrome trace-event JSON with scripts/tracecheck — the same
# file Perfetto loads.
trace-smoke:
	$(GO) run ./cmd/ffexperiments -exp tracepath -trace-out trace-smoke.json | tee /dev/stderr | grep -q 'exact (PASS)'
	$(GO) run ./scripts/tracecheck trace-smoke.json
	rm -f trace-smoke.json

# Fleet-scale gate: a scaled-down 10k-device sharded-engine run with
# the run-time invariant checker armed (any conservation violation
# fails the run), followed by the tracked 100k-device benchmark at 1x.
# Both outputs land in fleet-smoke.txt for the CI artifact; the state
# hashes printed there are byte-identical across shard counts, worker
# counts and reruns.
FLEET_SMOKE_DEVICES ?= 10000
fleet-smoke:
	$(GO) run ./cmd/ffexperiments -exp fleet -fleet-devices $(FLEET_SMOKE_DEVICES) -invariants | tee fleet-smoke.txt | grep -q 'invariant checker: armed, clean'
	$(GO) test -run '^$$' -bench 'BenchmarkFleetRun$$' -benchmem -benchtime 1x -timeout 30m . | tee -a fleet-smoke.txt

# Regenerate every table and figure (ASCII + CSV traces into results/).
experiments:
	$(GO) run ./cmd/ffexperiments -exp all -out results

# Automated reproduction report with PASS/FAIL shape checks.
report:
	$(GO) run ./cmd/ffreport -o REPORT.md -replicas 10

clean:
	rm -rf results REPORT.md test_output.txt bench_output.txt \
		fleet-smoke.txt fleet-cpu.pprof soak-verdicts.jsonl repro.test
