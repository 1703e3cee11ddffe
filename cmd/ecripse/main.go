// Command ecripse estimates the read-failure probability of the paper's 6T
// SRAM cell, RDF-only or RTN-aware, using the two-stage classifier-
// accelerated flow.
//
// Usage examples:
//
//	ecripse -conditions                 # print Table I
//	ecripse -vdd 0.7                    # RDF-only at nominal supply
//	ecripse -vdd 0.7 -rtn -alpha 0.3    # RTN-aware at duty ratio 0.3
//	ecripse -vdd 0.5 -nis 400000 -series convergence.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ecripse"
	"ecripse/internal/experiments"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
)

// splitLines splits rendered multi-line text for re-indentation.
func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

// parseAxis reads one sweep axis flag: "" (no axis), a comma-separated
// value list, or a from:to:steps range.
func parseAxis(s string) (*service.Axis, error) {
	if s == "" {
		return nil, nil
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range %q: want from:to:steps", s)
		}
		from, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("range %q: %w", s, err)
		}
		to, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("range %q: %w", s, err)
		}
		steps, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("range %q: %w", s, err)
		}
		return &service.Axis{From: from, To: to, Steps: steps}, nil
	}
	var vals []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", f, err)
		}
		vals = append(vals, v)
	}
	return &service.Axis{Values: vals}, nil
}

// runSweep executes a sweep spec in-process and prints the grid as CSV.
// Per-point failures go to stderr and turn the exit code non-zero; the
// surviving points are still printed. ctx carries the -timeout budget: a
// sweep it stops prints the points done and returns 1.
func runSweep(ctx context.Context, spec service.SweepSpec) int {
	start := time.Now()
	res, sweepErr := service.RunSweepLocal(ctx, spec, nil)
	if res == nil {
		fmt.Fprintln(os.Stderr, "ecripse:", sweepErr)
		return 1
	}
	fmt.Println("# alpha,vdd,temp_k,Pfail,CI95,sims,warm")
	failed := 0
	for _, p := range res.Points {
		if p.Error != "" {
			failed++
			fmt.Fprintf(os.Stderr, "ecripse: sweep point %d failed: %s\n", p.Index, p.Error)
			continue
		}
		fmt.Printf("%s,%s,%s,%.6e,%.6e,%d,%v\n",
			axisCSV(p.Alpha), axisCSV(p.Vdd), axisCSV(p.TempK),
			p.Estimate.P, p.Estimate.CI95, p.Estimate.Sims, p.Warm)
	}
	fmt.Printf("# sweep: %d points, %d warm-started, %d total sims, ~%d sims saved by warm starts, wall=%s\n",
		len(res.Points), res.WarmPoints, res.TotalSims, res.SimsSaved,
		time.Since(start).Round(time.Millisecond))
	if sweepErr != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "ecripse: sweep stopped by -timeout: %v\n", ctx.Err())
		} else {
			fmt.Fprintf(os.Stderr, "ecripse: %d sweep points failed\n", failed)
		}
		return 1
	}
	return 0
}

// axisCSV renders an optional axis coordinate ("" when the axis is absent).
func axisCSV(v *float64) string {
	if v == nil {
		return ""
	}
	return strconv.FormatFloat(*v, 'g', -1, 64)
}

func main() {
	var (
		vdd        = flag.Float64("vdd", ecripse.VddNominal, "supply voltage [V]")
		withRTN    = flag.Bool("rtn", false, "include RTN-induced variability")
		alpha      = flag.Float64("alpha", 0.5, "storage duty ratio (with -rtn)")
		nis        = flag.Int("nis", 200000, "importance samples")
		m          = flag.Int("m", 20, "RTN samples per RDF sample (with -rtn)")
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the hot loops (results are identical at any value)")
		noClass    = flag.Bool("noclassifier", false, "disable the SVM blockade (every sample simulated)")
		mode       = flag.String("mode", "read", "failure criterion: read, write or hold")
		conditions = flag.Bool("conditions", false, "print the Table I experimental conditions and exit")
		seriesPath = flag.String("series", "", "write the convergence series CSV to this file")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget; a stop inside stage 2 reports the partial series, one before it exits 1 without an estimate")
		maxSims    = flag.Int64("max-sims", 0, "transistor-level simulation budget; a stop inside stage 2 reports the partial series, one before it exits 1 without an estimate")
		trace      = flag.Bool("trace", false, "print the stage span timeline and per-round convergence diagnostics")
		health     = flag.Bool("health", false, "evaluate the statistical-health watchdog and print its verdict")
		sweepAlpha = flag.String("sweep-alpha", "", `duty-ratio sweep axis: comma list ("0,0.5,1") or from:to:steps ("0:1:11"); requires -rtn`)
		sweepVdd   = flag.String("sweep-vdd", "", "supply sweep axis [V]: comma list or from:to:steps (replaces -vdd)")
		sweepTemp  = flag.String("sweep-temp", "", "temperature sweep axis [K]: comma list or from:to:steps")
		sweepWarm  = flag.Bool("sweep-warm", true, "warm-start each sweep point from its neighbor (with -sweep-*)")
	)
	flag.Parse()

	if *conditions {
		experiments.TableI(os.Stdout)
		return
	}

	// Budget plumbing: a wall-clock deadline and/or a simulation budget both
	// funnel into one context; the estimators stop at their next
	// cancellation checkpoint. A stop inside stage 2 reports the partial
	// series; a stop before the first stage-2 point exits 1 without an
	// estimate.
	ctx := context.Background()
	var cancel context.CancelFunc
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	if *sweepAlpha != "" || *sweepVdd != "" || *sweepTemp != "" {
		if *trace || *health || *seriesPath != "" {
			fmt.Fprintln(os.Stderr, "ecripse: -trace, -health and -series apply to single runs, not to -sweep-* grids")
			os.Exit(2)
		}
		base := service.JobSpec{
			Mode: *mode, RTN: *withRTN, Seed: *seed, N: *nis, M: *m,
			NoClassifier: *noClass, Parallelism: *parallel, MaxSims: *maxSims,
		}
		if *sweepVdd == "" {
			base.Vdd = *vdd
		}
		if *sweepAlpha == "" && *withRTN {
			base.Alpha = *alpha
		}
		spec := service.SweepSpec{Base: base, WarmStart: *sweepWarm}
		var err error
		if spec.Alpha, err = parseAxis(*sweepAlpha); err != nil {
			fmt.Fprintln(os.Stderr, "ecripse: -sweep-alpha:", err)
			os.Exit(2)
		}
		if spec.Vdd, err = parseAxis(*sweepVdd); err != nil {
			fmt.Fprintln(os.Stderr, "ecripse: -sweep-vdd:", err)
			os.Exit(2)
		}
		if spec.TempK, err = parseAxis(*sweepTemp); err != nil {
			fmt.Fprintln(os.Stderr, "ecripse: -sweep-temp:", err)
			os.Exit(2)
		}
		os.Exit(runSweep(ctx, spec))
	}

	var failMode ecripse.FailureMode
	switch *mode {
	case "read":
		failMode = ecripse.ReadFailure
	case "write":
		failMode = ecripse.WriteFailure
	case "hold":
		failMode = ecripse.HoldFailure
	default:
		fmt.Fprintf(os.Stderr, "ecripse: unknown -mode %q (want read, write or hold)\n", *mode)
		os.Exit(2)
	}

	cell := ecripse.NewCell(*vdd)
	est := ecripse.New(cell, ecripse.Options{
		NIS: *nis, M: *m, NoClassifier: *noClass, Mode: failMode,
		Parallelism: *parallel,
	})

	if *maxSims > 0 {
		est.LimitSims(*maxSims, cancel)
	}
	var tr *obsv.Trace
	if *trace {
		tr = obsv.NewTrace()
		ctx = obsv.WithTrace(ctx, tr)
	}
	var hm *obsv.HealthMonitor
	if *health {
		hm = obsv.NewHealthMonitor(obsv.HealthConfig{}, nil)
		ctx = obsv.WithHealth(ctx, hm)
	}

	runStart := time.Now()
	var res ecripse.Result
	var runErr error
	if *withRTN {
		cfg := ecripse.TableIRTN(cell)
		res, runErr = est.FailureProbabilityRTNCtx(ctx, *seed, cfg, *alpha)
		fmt.Printf("RTN-aware failure probability (Vdd=%.2f V, alpha=%.2f):\n", *vdd, *alpha)
	} else {
		res, runErr = est.FailureProbabilityCtx(ctx, *seed)
		fmt.Printf("RDF-only %s-failure probability (Vdd=%.2f V):\n", failMode, *vdd)
	}
	if runErr != nil {
		stop := fmt.Sprintf("by -timeout after %s", *timeout)
		if *maxSims > 0 && est.Simulations() >= *maxSims {
			stop = fmt.Sprintf("at the -max-sims budget of %d", *maxSims)
		}
		if len(res.Series) == 0 {
			// Stopped before the first stage-2 batch: the zero estimate in
			// res is no estimate at all.
			fmt.Fprintf(os.Stderr, "ecripse: stopped %s (%d simulations), before stage 2; no estimate reached\n",
				stop, est.Simulations())
			os.Exit(1)
		}
		fmt.Printf("  [stopped %s; partial result]\n", stop)
	}
	elapsed := time.Since(runStart)
	fmt.Printf("  %v\n", res.Estimate)
	fmt.Printf("  cost: init=%d warmup=%d stage1=%d stage2=%d transistor-level simulations  wall=%s (%d workers)\n",
		res.InitSims, res.WarmupSims, res.Stage1Sims, res.Stage2Sims,
		elapsed.Round(time.Millisecond), *parallel)
	fmt.Printf("  solver: %d root solves, %d iterations\n", res.RootSolves, res.SolverIters)
	if res.LaneSlots > 0 {
		fmt.Printf("  batch kernel: %d lane slots, %.1f%% occupied\n", res.LaneSlots, 100*res.LaneUtilization())
	}
	if res.PipelinedBatches > 0 {
		fmt.Printf("  pipeline: %d batches, %.1f%% of generation overlapped (stall=%s settle=%s)\n",
			res.PipelinedBatches, 100*res.OverlapFraction(),
			time.Duration(res.PipelineStallNS).Round(time.Microsecond),
			time.Duration(res.PipelineSettleNS).Round(time.Microsecond))
	}

	if *trace {
		fmt.Printf("  trace:\n")
		for _, line := range splitLines(tr.Timeline()) {
			fmt.Printf("    %s\n", line)
		}
		if len(res.PFRounds) > 0 {
			fmt.Printf("  stage-1 convergence (per round: min ESS, max weight fraction, min unique survivors):\n")
			for _, r := range res.PFRounds {
				minESS, maxFrac, minUnique := ecripse.RoundSummary(r.Filters)
				fmt.Printf("    round %d: sims=%d ess=%.1f max_w=%.3f unique=%d\n",
					r.Round, r.Sims, minESS, maxFrac, minUnique)
			}
		}
	}

	if *health {
		for _, line := range splitLines(hm.Report().Summary()) {
			fmt.Printf("  %s\n", line)
		}
		for _, v := range hm.WallViolations() {
			fmt.Printf("  [%s] (wall-clock, not cached) %s\n", v.Rule, v.Detail)
		}
	}

	if *seriesPath != "" {
		f, err := os.Create(*seriesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecripse:", err)
			os.Exit(1)
		}
		defer f.Close()
		experiments.WriteSeries(f, experiments.MethodSeries{Name: "ecripse", Series: res.Series, Estimate: res.Estimate})
		fmt.Printf("  convergence series written to %s\n", *seriesPath)
	}
}
