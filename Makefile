# Convenience targets for the ecripse reproduction.

GO ?= go

.PHONY: all build test race lint-metrics bench-smoke figures figures-full clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/montecarlo/ ./internal/sram/ ./internal/spice/ \
		./internal/pfilter/ ./internal/core/ \
		./internal/service/ ./internal/cluster/ ./internal/store/

# Blocking Prometheus-exposition lint: every text exposition the repo
# serves — the shard's /metrics, the router's cluster roll-up, and both
# with populated watchdog (ecripsed_health_violations_total) families —
# must pass the promtool-style in-test linter.
lint-metrics:
	$(GO) test -count=1 -run 'TestPromWriterRendering|TestLintPromCatchesViolations' ./internal/obsv/
	$(GO) test -count=1 -run 'TestMetricsPrometheusLint|TestWatchdogFlagsDegeneratePF' ./internal/service/
	$(GO) test -count=1 -run 'TestRouterPrometheusRollup|TestRouterHealthRollup' ./internal/cluster/

# Quick single-pass run of every benchmark in the module (no recording) —
# the CI smoke. bench/ is a module of its own and stays out; it records
# performance (bench/README.md).
bench-smoke:
	$(GO) test -bench . -benchmem -benchtime 1x -short -run XXX -timeout 30m ./...

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
	rm -f test_output.txt bench_output.txt
