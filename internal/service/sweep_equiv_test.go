package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// sweepGoldenPath is the sweep-equivalence baseline, checked in so CI
// compares every run against the same numbers. Regenerate after an
// intentional estimator or planner change with:
//
//	REGRESS_UPDATE=1 go test -run TestSweepMatchesIndependentPoints ./internal/service/
const sweepGoldenPath = "../../results/golden/sweep_equiv.json"

// sweepGoldenPoint pins one grid point: the warm-started sweep estimate and
// the independent cold run of the identical point spec, as recorded when the
// baseline was written.
type sweepGoldenPoint struct {
	Alpha    float64 `json:"alpha"`
	WarmP    float64 `json:"warm_p"`
	WarmCI95 float64 `json:"warm_ci95"`
	WarmSims int64   `json:"warm_sims"`
	ColdP    float64 `json:"cold_p"`
	ColdCI95 float64 `json:"cold_ci95"`
	ColdSims int64   `json:"cold_sims"`
}

type sweepGolden struct {
	// TolCI is the equivalence band in units of the larger CI95 half-width:
	// warm and cold estimates of the same point (different deterministic
	// random realizations) must satisfy |warm - cold| <= TolCI * max(ci95),
	// and each side must stay within TolCI of its own pinned golden value.
	TolCI  float64            `json:"tol_ci"`
	Base   JobSpec            `json:"base"`
	Points []sweepGoldenPoint `json:"points"`
}

// equivSweepSpec rebuilds the sweep the baseline pins, at the requested
// intra-point parallelism.
func equivSweepSpec(g *sweepGolden, parallelism int) SweepSpec {
	base := g.Base
	base.Parallelism = parallelism
	alphas := make([]float64, len(g.Points))
	for i, p := range g.Points {
		alphas[i] = p.Alpha
	}
	return SweepSpec{Base: base, Alpha: &Axis{Values: alphas}, WarmStart: true}
}

// TestSweepMatchesIndependentPoints is the sweep-equivalence regression
// suite: a warm-started sweep must produce, at every grid point, an estimate
// statistically equivalent to an independent cold run of the same point spec
// (warm seeding reuses the neighbor's boundary knowledge but must not bias
// the estimator), and the whole sweep must be bit-identical at any
// parallelism level. Both sides are pinned against a checked-in golden
// baseline so a bias or variance regression on either path is caught even
// when the two paths drift together. Skipped under -short; REGRESS_UPDATE=1
// rewrites the baseline.
func TestSweepMatchesIndependentPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep equivalence suite skipped in -short mode")
	}

	raw, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatalf("read golden baseline: %v (regenerate with REGRESS_UPDATE=1)", err)
	}
	var golden sweepGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("decode %s: %v", sweepGoldenPath, err)
	}
	update := os.Getenv("REGRESS_UPDATE") != ""
	if (golden.TolCI <= 0 || len(golden.Points) == 0) && !update {
		t.Fatalf("golden baseline malformed: %+v", golden)
	}

	ctx := context.Background()
	start := time.Now()
	warm, err := RunSweepLocal(ctx, equivSweepSpec(&golden, 1), nil)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	t.Logf("warm sweep: %d points, %d sims, ~%d saved (%.1fs)",
		len(warm.Points), warm.TotalSims, warm.SimsSaved, time.Since(start).Seconds())

	// Independent cold runs of the identical point specs (the planner's
	// point spec minus the warm linkage fields).
	cold := make([]*RunResult, len(golden.Points))
	for i, gp := range golden.Points {
		spec := golden.Base
		spec.Parallelism = 1
		spec.Sweep = []float64{gp.Alpha}
		out, err := RunSpec(ctx, spec, nil)
		if err != nil {
			t.Fatalf("cold point alpha=%v: %v", gp.Alpha, err)
		}
		cold[i] = out
	}

	for i := range golden.Points {
		gp := &golden.Points[i]
		wp, cp := warm.Points[i], cold[i]
		t.Run(fmt.Sprintf("alpha=%v", gp.Alpha), func(t *testing.T) {
			if update {
				gp.WarmP, gp.WarmCI95, gp.WarmSims = wp.Estimate.P, wp.Estimate.CI95, wp.Estimate.Sims
				gp.ColdP, gp.ColdCI95, gp.ColdSims = cp.Estimate.P, cp.Estimate.CI95, cp.Estimate.Sims
				return
			}
			if wp.Estimate.P <= 0 || cp.Estimate.P <= 0 {
				t.Fatalf("estimate collapsed: warm %v cold %v", wp.Estimate.P, cp.Estimate.P)
			}
			// Warm vs cold equivalence on this run's own numbers.
			bound := golden.TolCI * max(wp.Estimate.CI95, cp.Estimate.CI95)
			if diff := wp.Estimate.P - cp.Estimate.P; diff < -bound || diff > bound {
				t.Errorf("warm sweep diverged from the independent run:\n warm %.6e (CI95 ±%.3e)\n cold %.6e (CI95 ±%.3e)\n |diff| > %g×CI95 = %.3e",
					wp.Estimate.P, wp.Estimate.CI95, cp.Estimate.P, cp.Estimate.CI95, golden.TolCI, bound)
			}
			// Each side against its pinned golden value.
			if diff, b := wp.Estimate.P-gp.WarmP, golden.TolCI*gp.WarmCI95; diff < -b || diff > b {
				t.Errorf("warm estimate drifted from golden: %.6e vs %.6e (band %.3e)", wp.Estimate.P, gp.WarmP, b)
			}
			if diff, b := cp.Estimate.P-gp.ColdP, golden.TolCI*gp.ColdCI95; diff < -b || diff > b {
				t.Errorf("cold estimate drifted from golden: %.6e vs %.6e (band %.3e)", cp.Estimate.P, gp.ColdP, b)
			}
			// A variance blow-up is a regression even when the means agree.
			if gp.WarmCI95 > 0 && wp.Estimate.CI95 > 4*gp.WarmCI95 {
				t.Errorf("warm CI95 blew up: %.3e vs golden %.3e", wp.Estimate.CI95, gp.WarmCI95)
			}
			if gp.ColdCI95 > 0 && cp.Estimate.CI95 > 4*gp.ColdCI95 {
				t.Errorf("cold CI95 blew up: %.3e vs golden %.3e", cp.Estimate.CI95, gp.ColdCI95)
			}
		})
	}

	if update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(sweepGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", sweepGoldenPath)
		return
	}

	// Parallelism determinism: the whole warm sweep — estimates, costs,
	// warm linkage, sims-saved accounting — must be bit-identical at any
	// intra-point worker count.
	for _, par := range []int{2, 8} {
		got, err := RunSweepLocal(ctx, equivSweepSpec(&golden, par), nil)
		if err != nil {
			t.Fatalf("warm sweep at parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(warm, got) {
			t.Errorf("sweep result differs at parallelism %d vs 1:\n p=1: %+v\n p=%d: %+v", par, warm, par, got)
		}
	}
}

// TestWarmSweepHalvesSimulations is the planner's cost gate: the paper's
// Fig. 7/8 duty-ratio grid run as one warm-started sweep must spend at most
// half the transistor-level simulations of the same points run cold.
// Simulation counts are a deterministic function of the seeds, identical at
// any parallelism, so the bound holds exactly on any host. Skipped under
// -short.
func TestWarmSweepHalvesSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-vs-cold sweep gate skipped in -short mode")
	}
	totalSims := func(warm bool) int64 {
		spec := SweepSpec{
			Base:      JobSpec{RTN: true, Vdd: 0.5, N: 20000, M: 5, Seed: 1},
			Alpha:     &Axis{From: 0, To: 1, Steps: 9},
			WarmStart: warm,
		}
		res, err := RunSweepLocal(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("sweep (warm=%v): %v", warm, err)
		}
		return res.TotalSims
	}
	cold, warm := totalSims(false), totalSims(true)
	ratio := float64(warm) / float64(cold)
	t.Logf("9-point alpha grid: cold %d sims, warm %d sims, warm/cold %.3f", cold, warm, ratio)
	if ratio > 0.5 {
		t.Fatalf("warm sweep spent %d sims, %.3f of the cold sweep's %d; want at most 0.5", warm, ratio, cold)
	}
}
