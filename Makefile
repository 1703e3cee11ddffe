# Convenience targets for the ecripse reproduction.

GO ?= go

.PHONY: all build test race lint-metrics bench bench-batch bench-diff bench-smoke bench-sweep bench-scaling figures figures-full clean

# Fig-6/7/8 end-to-end benchmarks plus the hot kernels and the engine
# parallelism scaling sweep.
BENCH_PATTERN ?= Fig6|Fig7|Fig8|EngineParallelism|IndicatorEvaluation|DeviceIds|GMMLogPDF|ClassifierPredict|PolyScore|NoiseMargin|PoissonSampler|RTNSample

# Baseline document that bench-diff compares against (the oldest committed
# trajectory point by default; override on the command line).
BENCH_BASELINE ?= results/bench/BENCH_2026-08-06.json

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/montecarlo/ ./internal/sram/ ./internal/spice/ \
		./internal/service/ ./internal/cluster/ ./internal/store/

# Blocking Prometheus-exposition lint: every text exposition the repo
# serves — the shard's /metrics, the router's cluster roll-up, and both
# with populated watchdog (ecripsed_health_violations_total) families —
# must pass the promtool-style in-test linter.
lint-metrics:
	$(GO) test -count=1 -run 'TestPromWriterRendering|TestLintPromCatchesViolations' ./internal/obsv/
	$(GO) test -count=1 -run 'TestMetricsPrometheusLint|TestWatchdogFlagsDegeneratePF' ./internal/service/
	$(GO) test -count=1 -run 'TestRouterPrometheusRollup|TestRouterHealthRollup' ./internal/cluster/

# Record a benchmark baseline: 5 repetitions of the figure and hot-kernel
# benchmarks, converted to results/bench/BENCH_<date>.json so future PRs
# can diff ns/op, sims and allocs against this trajectory.
bench:
	mkdir -p results/bench
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x -count 5 -run XXX -timeout 60m . \
		| tee results/bench/bench_raw.txt
	out=results/bench/BENCH_$$(date -u +%F).json; \
	if [ -e $$out ]; then out=results/bench/BENCH_$$(date -u +%F)-$$(date -u +%H%M%S).json; fi; \
	$(GO) run ./cmd/benchjson -o $$out < results/bench/bench_raw.txt

# Scalar-vs-lockstep indicator throughput: BenchmarkNoiseMarginBatch solves
# the same 256 samples per-sample and through the batch VTC kernel at lane
# widths 64/128/256 (margins/s), recorded as results/bench/BATCH_<date>.json
# so lane-width regressions show up in the trajectory.
bench-batch:
	mkdir -p results/bench
	$(GO) test -bench NoiseMarginBatch -benchmem -benchtime 2s -count 3 -run XXX -timeout 30m ./internal/sram/ \
		| tee results/bench/batch_raw.txt
	out=results/bench/BATCH_$$(date -u +%F).json; \
	if [ -e $$out ]; then out=results/bench/BATCH_$$(date -u +%F)-$$(date -u +%H%M%S).json; fi; \
	$(GO) run ./cmd/benchjson -o $$out < results/bench/batch_raw.txt

# Run the suite once and diff it against the committed baseline
# ($(BENCH_BASELINE)); prints per-benchmark ratios and the geomean.
bench-diff:
	mkdir -p results/bench
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x -count 3 -run XXX -timeout 60m . \
		> results/bench/bench_new_raw.txt
	$(GO) run ./cmd/benchjson -o results/bench/bench_new.json < results/bench/bench_new_raw.txt
	$(GO) run ./cmd/benchjson diff -threshold 1.15 $(BENCH_BASELINE) results/bench/bench_new.json

# Quick single-pass run of every benchmark (no recording) — the CI smoke.
bench-smoke:
	$(GO) test -bench . -benchmem -benchtime 1x -short -run XXX .

# Warm-vs-cold sweep comparison: record both modes of BenchmarkSweepFig7 as
# results/bench/SWEEP_<date>_{cold,warm}.json and print the sims ratio. The
# same diff (threshold 0.5, i.e. warm must at least halve the simulation
# count) gates CI.
bench-sweep:
	mkdir -p results/bench
	SWEEP_BENCH_MODE=cold $(GO) test -bench SweepFig7 -benchtime 1x -count 3 -run XXX -timeout 30m . \
		| tee results/bench/sweep_cold_raw.txt
	SWEEP_BENCH_MODE=warm $(GO) test -bench SweepFig7 -benchtime 1x -count 3 -run XXX -timeout 30m . \
		| tee results/bench/sweep_warm_raw.txt
	$(GO) run ./cmd/benchjson -o results/bench/SWEEP_$$(date -u +%F)_cold.json < results/bench/sweep_cold_raw.txt
	$(GO) run ./cmd/benchjson -o results/bench/SWEEP_$$(date -u +%F)_warm.json < results/bench/sweep_warm_raw.txt
	$(GO) run ./cmd/benchjson diff -fail -threshold 0.5 -metric sims -match Sweep \
		results/bench/SWEEP_$$(date -u +%F)_cold.json results/bench/SWEEP_$$(date -u +%F)_warm.json

# Multi-core scaling trajectory: the Fig. 7/8 scaling workloads at
# GOMAXPROCS 1/2/4/8, recorded as results/bench/SCALING_<date>.json. On a
# single-core host the -cpu settings tie; the file records that honestly.
bench-scaling:
	mkdir -p results/bench
	$(GO) test -bench 'Fig7Scaling|Fig8Scaling' -cpu 1,2,4,8 -benchtime 1x -count 3 -run XXX -timeout 60m . \
		| tee results/bench/scaling_raw.txt
	$(GO) run ./cmd/benchjson -o results/bench/SCALING_$$(date -u +%F).json < results/bench/scaling_raw.txt

# Regenerate the paper's evaluation at default scale into results/.
figures:
	mkdir -p results
	$(GO) run ./cmd/ecripse -conditions                      | tee results/table1.txt
	$(GO) run ./cmd/particles                                 > results/fig4.csv
	$(GO) run ./cmd/butterfly                                 > results/fig5_nominal.csv
	$(GO) run ./cmd/butterfly -shift D1=0.35 -shift A1=-0.2   > results/fig5_defective.csv
	$(GO) run ./cmd/compare -fig 6                            > results/fig6.csv
	$(GO) run ./cmd/compare -fig 7 -both                      > results/fig7.csv
	$(GO) run ./cmd/dutysweep                                 > results/fig8.csv
	$(GO) run ./cmd/methods -vdd 0.5                          | tee results/methods.txt

# Paper-scale runs (minutes).
figures-full:
	mkdir -p results
	$(GO) run ./cmd/compare -fig 6 -scale full                > results/fig6_full.csv
	$(GO) run ./cmd/compare -fig 7 -both -scale full          > results/fig7_full.csv
	$(GO) run ./cmd/dutysweep -scale full                     > results/fig8_full.csv

clean:
	rm -f test_output.txt bench_output.txt results/bench/bench_raw.txt \
		results/bench/bench_new_raw.txt results/bench/bench_new.json \
		results/bench/batch_raw.txt \
		results/bench/sweep_cold_raw.txt results/bench/sweep_warm_raw.txt \
		results/bench/scaling_raw.txt
