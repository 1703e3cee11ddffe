package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ecripse/internal/obsv"
	"ecripse/internal/sram"
)

// smallOpts keeps telemetry tests fast: tiny boundary search, short stage 1,
// modest stage 2.
func smallOpts() Options {
	return Options{
		Particles:  10,
		PFIters:    4,
		Directions: 48,
		NIS:        2000,
	}
}

// TestTelemetryDoesNotPerturbResults is the invariant the whole layer rests
// on: running with trace + emitter + indicator histogram attached must yield
// the bit-identical estimate, series, diagnostics and cost split of a bare
// run with the same seed.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	cell := sram.NewCell(0.5)

	run := func(withTelemetry bool) (Result, *obsv.Trace, int) {
		opts := smallOpts()
		ctx := context.Background()
		var tr *obsv.Trace
		events := 0
		if withTelemetry {
			tr = obsv.NewTrace()
			ctx = obsv.WithTrace(ctx, tr)
			ctx = obsv.WithEmitter(ctx, func(kind string, data any) { events++ })
			opts.IndicatorHist = obsv.NewHistogram("test_indicator_seconds", "t", obsv.ExpBuckets(1e-6, 10, 6))
		}
		eng := NewEngine(cell, nil, opts)
		res, err := eng.RunCtx(ctx, rand.New(rand.NewSource(7)), nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res, tr, events
	}

	bare, _, _ := run(false)
	instr, tr, events := run(true)

	if bare.Estimate != instr.Estimate {
		t.Fatalf("estimate changed under telemetry:\nbare:  %+v\ninstr: %+v", bare.Estimate, instr.Estimate)
	}
	if !reflect.DeepEqual(bare.Series, instr.Series) {
		t.Fatalf("series changed under telemetry")
	}
	if !reflect.DeepEqual(bare.PFRounds, instr.PFRounds) {
		t.Fatalf("PF diagnostics changed under telemetry")
	}
	if bare.Stage1Sims != instr.Stage1Sims || bare.Stage2Sims != instr.Stage2Sims ||
		bare.InitSims != instr.InitSims || bare.WarmupSims != instr.WarmupSims ||
		bare.Classified != instr.Classified {
		t.Fatalf("cost split changed under telemetry:\nbare:  %+v\ninstr: %+v", bare, instr)
	}

	// The instrumented run must actually have observed things.
	if events == 0 {
		t.Fatal("no diagnostic events emitted")
	}
	if tr.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	names := map[string]int{}
	var pfAttrs, boundaryAttrs map[string]any
	for _, v := range tr.Spans() {
		names[v.Name]++
		if v.Name == "pf.round" && pfAttrs == nil {
			pfAttrs = v.Attrs
		}
		if v.Name == "boundary.init" {
			boundaryAttrs = v.Attrs
		}
		if v.DurMS < 0 {
			t.Fatalf("span %s left in flight", v.Name)
		}
	}
	for _, want := range []string{"boundary.init", "blockade.train", "pf.round", "stage2.is"} {
		if names[want] == 0 {
			t.Fatalf("missing span %q (have %v)", want, names)
		}
	}
	if names["pf.round"] != smallOpts().PFIters {
		t.Fatalf("want %d pf.round spans, got %d", smallOpts().PFIters, names["pf.round"])
	}
	for _, key := range []string{"ess", "max_weight_frac", "unique"} {
		if _, ok := pfAttrs[key]; !ok {
			t.Fatalf("pf.round span missing attr %q: %v", key, pfAttrs)
		}
	}
	// The boundary search reports its lockstep steps after the ring probe:
	// at least one, and at most twice bisection's 8.
	if steps, ok := boundaryAttrs["steps"].(int64); !ok || steps < 1 || steps > 16 {
		t.Fatalf("boundary.init span steps = %v, want 1..16 (attrs %v)", boundaryAttrs["steps"], boundaryAttrs)
	}
}

// TestPFRoundDiagnostics sanity-checks the recorded convergence numbers.
func TestPFRoundDiagnostics(t *testing.T) {
	cell := sram.NewCell(0.5)
	eng := NewEngine(cell, nil, smallOpts())
	res := mustRun(t, eng, rand.New(rand.NewSource(11)), nil)

	if len(res.PFRounds) != smallOpts().PFIters {
		t.Fatalf("want %d rounds, got %d", smallOpts().PFIters, len(res.PFRounds))
	}
	for _, rd := range res.PFRounds {
		if len(rd.Filters) == 0 {
			t.Fatalf("round %d has no filter diagnostics", rd.Round)
		}
		for fi, f := range rd.Filters {
			if f.Particles <= 0 {
				t.Fatalf("round %d filter %d: no particles", rd.Round, fi)
			}
			if f.ESS < 0 || f.ESS > float64(f.Particles)+1e-9 {
				t.Fatalf("round %d filter %d: ESS %v out of [0, %d]", rd.Round, fi, f.ESS, f.Particles)
			}
			if f.MaxWeightFrac < 0 || f.MaxWeightFrac > 1+1e-12 {
				t.Fatalf("round %d filter %d: max weight frac %v", rd.Round, fi, f.MaxWeightFrac)
			}
			if f.Unique < 0 || f.Unique > f.Particles {
				t.Fatalf("round %d filter %d: unique %d out of range", rd.Round, fi, f.Unique)
			}
			// A non-degenerate round resampled something.
			if f.ESS > 0 && f.Unique == 0 {
				t.Fatalf("round %d filter %d: positive ESS but zero unique", rd.Round, fi)
			}
		}
	}
	// Var rides the convergence series now.
	if fin := res.Series.Final(); fin.P > 0 && fin.Var <= 0 {
		t.Fatalf("final series point has no variance: %+v", fin)
	}
}

// TestMaxTermShareReported: the Vdd 0.7 RDF-only run at seed 139, whose
// estimate one stage-2 draw dominates, reports that draw's share on the
// Result and in the health report, as information that leaves the report
// healthy; and the estimate's bits are those of a run without a monitor.
func TestMaxTermShareReported(t *testing.T) {
	hm := obsv.NewHealthMonitor(obsv.HealthConfig{}, nil)
	ctx := obsv.WithHealth(context.Background(), hm)
	res, err := NewEngine(sram.NewCell(0.7), nil, Options{NIS: 20000}).RunCtx(ctx, rand.New(rand.NewSource(139)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTermShare <= 0.7 || res.MaxTermShare > 1 {
		t.Fatalf("largest-term share %v, want one draw above 0.7 (Pfail %.4e)", res.MaxTermShare, res.Estimate.P)
	}
	rep := hm.Report()
	if rep.MaxTermShare != res.MaxTermShare || !rep.Healthy {
		t.Fatalf("health report: share %v (result %v), healthy %v", rep.MaxTermShare, res.MaxTermShare, rep.Healthy)
	}
	if got := rep.Summary(); !strings.Contains(got, fmt.Sprintf("largest term carries %.1f%%", 100*res.MaxTermShare)) {
		t.Fatalf("summary does not show the share:\n%s", got)
	}
	plain := mustRun(t, NewEngine(sram.NewCell(0.7), nil, Options{NIS: 20000}), rand.New(rand.NewSource(139)), nil)
	if math.Float64bits(plain.Estimate.P) != math.Float64bits(res.Estimate.P) || plain.MaxTermShare != res.MaxTermShare {
		t.Fatalf("monitored run %v (share %v), bare run %v (share %v)",
			res.Estimate.P, res.MaxTermShare, plain.Estimate.P, plain.MaxTermShare)
	}
}
