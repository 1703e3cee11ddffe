package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"ecripse/internal/core"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/rtn"
	"ecripse/internal/sis"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
)

// statsEstimate packages a final series point as an Estimate.
func statsEstimate(p stats.Point, n int, sims int64) stats.Estimate {
	return stats.Estimate{P: p.P, CI95: p.CI95, RelErr: p.RelErr, N: n, Sims: sims}
}

// cellValue wraps the SRAM indicator as a counted montecarlo.Value in the
// normalized space.
func cellValue(cell *sram.Cell, c *montecarlo.Counter) montecarlo.Value {
	sigma := cell.SigmaVth()
	opt := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	return func(x linalg.Vector) float64 {
		c.Add(1)
		var sh sram.Shifts
		for i := range sh {
			sh[i] = x[i] * sigma[i]
		}
		if cell.Fails(sh, opt) {
			return 1
		}
		return 0
	}
}

// Fig6Result compares the proposed method with the conventional baseline
// on the RDF-only problem at nominal supply.
type Fig6Result struct {
	Proposed     MethodSeries
	Conventional MethodSeries
	// SpeedupAtMatchedError is conventional sims / proposed sims at the
	// tightest relative error both methods reach (the paper reports 36x
	// fewer simulations / 15.6x wall clock at 1%).
	SpeedupAtMatchedError float64
	MatchedRelErr         float64
	// ProposedDiag is the proposed run's per-round stage-1 convergence
	// diagnostics (ESS, weight concentration, resampling diversity).
	ProposedDiag []core.PFRoundDiag
}

// Fig6 runs the comparison. Proposed IS samples are mostly classified
// (nearly free); the conventional flow pays one simulation per sample.
func Fig6(seed int64, scale Scale) (Fig6Result, error) {
	var nisProposed, nisConv int
	switch scale {
	case Smoke:
		nisProposed, nisConv = 40000, 4000
	case Default:
		nisProposed, nisConv = 400000, 60000
	case Full:
		nisProposed, nisConv = 1000000, 400000
	}
	cell := sram.NewCell(0.7)

	rngP := rand.New(rand.NewSource(seed))
	engP := core.NewEngine(cell, nil, core.Options{NIS: nisProposed, RecordEvery: nisProposed / 200})
	resP, err := engP.Run(rngP, nil)
	if err != nil {
		return Fig6Result{}, fmt.Errorf("fig6 proposed run: %w", err)
	}
	proposed := MethodSeries{Name: "proposed (ECRIPSE)", Series: resP.Series, Estimate: resP.Estimate}

	rngC := rand.New(rand.NewSource(seed + 1))
	var cc montecarlo.Counter
	resC := sis.Estimate(rngC, sram.NumTransistors, cellValue(cell, &cc), &cc,
		&sis.Options{NIS: nisConv, RecordEvery: nisConv / 200}, nil)
	conventional := MethodSeries{Name: "conventional (SIS [8])", Series: resC.Series, Estimate: resC.Estimate}

	out := Fig6Result{Proposed: proposed, Conventional: conventional, ProposedDiag: resP.PFRounds}
	// Matched-error speedup: find the tightest error the conventional run
	// achieved, then the simulations each method needed to reach it.
	target := resC.Estimate.RelErr
	if pSims, ok := resP.Series.SimsToRelErrStable(target); ok {
		if cSims, ok2 := resC.Series.SimsToRelErrStable(target); ok2 && pSims > 0 {
			out.SpeedupAtMatchedError = float64(cSims) / float64(pSims)
			out.MatchedRelErr = target
		}
	}
	return out, nil
}

// Write renders both series and the headline ratio.
func (r Fig6Result) Write(w io.Writer) {
	WriteSeries(w, r.Conventional)
	WriteSeries(w, r.Proposed)
	if r.SpeedupAtMatchedError > 0 {
		fmt.Fprintf(w, "# matched relative error %.3f: %.1fx fewer transistor-level simulations (paper: 36x at 1%%)\n",
			r.MatchedRelErr, r.SpeedupAtMatchedError)
	}
}

// Fig7Result compares the proposed method with naive Monte Carlo on the
// RTN-aware problem at lowered supply.
type Fig7Result struct {
	Alpha    float64
	Naive    MethodSeries
	Proposed MethodSeries
	// Speedup is naive sims / proposed sims at the naive run's final
	// relative error (the paper reports ~40x at alpha = 0.3).
	Speedup float64
	// ProposedDiag is the proposed run's per-round stage-1 convergence
	// diagnostics.
	ProposedDiag []core.PFRoundDiag
}

// Fig7 runs one panel (the paper shows alpha = 0.3 and 0.5). The engine may
// be reused across panels to reproduce the Fig. 7(b) shared-initialization
// observation; pass nil to create a fresh one.
func Fig7(seed int64, scale Scale, alpha float64, eng *core.Engine) (Fig7Result, *core.Engine, error) {
	var nNaive, nisProposed, m int
	switch scale {
	case Smoke:
		nNaive, nisProposed, m = 20000, 20000, 5
	case Default:
		nNaive, nisProposed, m = 120000, 150000, 20
	case Full:
		nNaive, nisProposed, m = 1000000, 400000, 20
	}
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	sampler := rtn.NewSampler(cell, cfg, alpha)
	sigma := cell.SigmaVth()
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24}

	rngN := rand.New(rand.NewSource(seed))
	var cn montecarlo.Counter
	// The naive reference settles its indicator calls through the lockstep
	// batch solver: draws stay on the sequential rng in trial order, labels
	// are bit-identical to cell.Fails, and NaiveBatched replays the scalar
	// recording schedule — so the series matches the per-trial loop exactly
	// while the margins march through the batch kernel.
	shs := make([]sram.Shifts, montecarlo.DefaultBatch)
	outs := make([]sram.SNMResult, montecarlo.DefaultBatch)
	draw := func(r *rand.Rand, slot int) {
		var sh sram.Shifts
		for i := range sh {
			sh[i] = sigma[i] * r.NormFloat64()
		}
		shs[slot] = sh.Add(sampler.Sample(r))
	}
	label := func(slots int, fails []bool) {
		cn.Add(int64(slots))
		cell.FailsBatch(shs[:slots], fails, outs[:slots], snm)
	}
	naiveSeries := montecarlo.NaiveBatched(context.Background(), rngN, draw, label, nNaive, montecarlo.DefaultBatch, &cn, nNaive/200)
	fin := naiveSeries.Final()
	naive := MethodSeries{Name: fmt.Sprintf("naive MC (alpha=%.1f)", alpha), Series: naiveSeries,
		Estimate: statsEstimate(fin, nNaive, cn.Count())}

	if eng == nil {
		eng = core.NewEngine(cell, nil, core.Options{NIS: nisProposed, M: m, RecordEvery: nisProposed / 200})
	}
	rngP := rand.New(rand.NewSource(seed + 1))
	resP, err := eng.Run(rngP, sampler)
	if err != nil {
		return Fig7Result{}, eng, fmt.Errorf("fig7 proposed run at alpha %g: %w", alpha, err)
	}
	proposed := MethodSeries{Name: fmt.Sprintf("proposed (alpha=%.1f)", alpha), Series: resP.Series, Estimate: resP.Estimate}

	out := Fig7Result{Alpha: alpha, Naive: naive, Proposed: proposed, ProposedDiag: resP.PFRounds}
	if pSims, ok := resP.Series.SimsToRelErrStable(fin.RelErr); ok && pSims > 0 {
		out.Speedup = float64(cn.Count()) / float64(pSims)
	}
	return out, eng, nil
}

// Write renders both series and the speedup.
func (r Fig7Result) Write(w io.Writer) {
	WriteSeries(w, r.Naive)
	WriteSeries(w, r.Proposed)
	if r.Speedup > 0 {
		fmt.Fprintf(w, "# speedup at naive's final relative error: %.1fx (paper: ~40x)\n", r.Speedup)
	}
}

// Fig8Result is the duty-ratio sweep plus the RDF-only reference.
type Fig8Result struct {
	Points  []core.SweepPoint
	RDFOnly core.Result
	// WorstOverRDF is max Pfail(alpha) / Pfail(RDF-only) — the paper's
	// "six times optimistic" headline.
	WorstOverRDF float64
	// MinAlpha is the duty ratio attaining the minimum.
	MinAlpha float64
}

// Fig8 sweeps the duty ratio at nominal supply.
func Fig8(seed int64, scale Scale) (Fig8Result, error) {
	var alphas []float64
	var nis, m int
	switch scale {
	case Smoke:
		alphas = []float64{0, 0.5, 1}
		nis, m = 20000, 5
	case Default:
		alphas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
		nis, m = 100000, 20
	case Full:
		alphas = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
		nis, m = 300000, 20
	}
	cell := sram.NewCell(0.7)
	cfg := rtn.TableIConfig(cell)
	rng := rand.New(rand.NewSource(seed))
	opts := core.Options{NIS: nis, M: m}

	rdf, err := core.RDFOnly(rand.New(rand.NewSource(seed+1)), cell, opts)
	if err != nil {
		return Fig8Result{}, fmt.Errorf("fig8 RDF-only reference: %w", err)
	}
	pts, err := core.DutySweep(rng, cell, cfg, alphas, opts)
	if err != nil {
		return Fig8Result{}, fmt.Errorf("fig8: %w", err)
	}

	out := Fig8Result{Points: pts, RDFOnly: rdf, MinAlpha: math.NaN()}
	worst, best := 0.0, math.Inf(1)
	for _, p := range pts {
		if p.Result.Estimate.P > worst {
			worst = p.Result.Estimate.P
		}
		if p.Result.Estimate.P < best {
			best = p.Result.Estimate.P
			out.MinAlpha = p.Alpha
		}
	}
	if rdf.Estimate.P > 0 {
		out.WorstOverRDF = worst / rdf.Estimate.P
	}
	return out, nil
}

// Write renders the sweep as the paper's Fig. 8 data plus headline ratios.
func (r Fig8Result) Write(w io.Writer) {
	fmt.Fprintf(w, "# RDF-only reference: %v\n", r.RDFOnly.Estimate)
	fmt.Fprintln(w, "# alpha,Pfail,CI95,sims")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.2f,%.6e,%.6e,%d\n", p.Alpha, p.Result.Estimate.P, p.Result.Estimate.CI95, p.Result.Estimate.Sims)
	}
	fmt.Fprintf(w, "# minimum at alpha=%.2f; worst-case RTN/RDF ratio %.1fx (paper: ~6x, minimum at 0.5)\n",
		r.MinAlpha, r.WorstOverRDF)
}
