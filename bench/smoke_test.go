package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs one op (one sweep) of each in-process workload, the traced
// pass of fig7-rtn, and 3 s of service-open at 2 requests/s, with a single
// set-up each.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real estimator")
	}
	for _, c := range []struct {
		workload string
		trace    bool
		window   time.Duration
		want     []string // metrics that must be measured
	}{
		{"fig7-rtn", false, time.Millisecond, []string{"sims_per_op"}},
		{"rdf-rare", false, time.Millisecond, []string{"sims_to_relerr10"}},
		{"sweep-warm", false, time.Millisecond, []string{"s_to_relerr10"}},
		{"service-open", false, 3 * time.Second, []string{"sims_per_op"}},
		{"fig7-rtn", true, time.Millisecond, []string{"sram.margin_us", "service.run_s_p50", "cluster.hop_s_p50"}},
	} {
		t.Run(fmt.Sprintf("%s/trace=%v", c.workload, c.trace), func(t *testing.T) {
			t.Parallel()
			work := t.TempDir()
			cfg := config{
				workload: c.workload, seed: 1, seconds: c.window, trace: c.trace,
				work: work, spans: filepath.Join(work, "spans.json"), nproc: runtime.NumCPU(),
				setupReps: 1, closedCount: 1, sweepCount: 1, rate: 2, roundJobs: 1,
			}
			d := &Doc{Host: readHost(), Workload: c.workload, Metrics: map[string]Metric{}}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := workloads[c.workload](ctx, cfg, d); err != nil {
				t.Fatal(err)
			}
			if d.Attempted == 0 || d.Failed > 0 {
				t.Fatalf("%d attempted, %d failed: %v", d.Attempted, d.Failed, d.Notes)
			}
			if !d.correct() {
				t.Fatalf("checks %+v", d.Checks)
			}
			for _, name := range c.want {
				if m, ok := d.Metrics[name]; !ok || m.N == 0 {
					t.Errorf("%s = %+v, want a measured value", name, m)
				}
			}
			if c.trace {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Fatalf("traced run wrote no spans: %v", err)
				}
			}
		})
	}
}
