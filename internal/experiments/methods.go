package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ecripse/internal/blockade"
	"ecripse/internal/core"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/sis"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
	"ecripse/internal/subset"
)

// MethodRow is one estimator's result in the cross-method comparison.
type MethodRow struct {
	Name     string
	Estimate stats.Estimate
}

// MethodsResult compares every estimator in the repository on the same
// problem: the RDF-only read-failure probability of the Table I cell.
type MethodsResult struct {
	Vdd       float64
	Reference float64 // naive MC at the largest budget, the ground truth
	Rows      []MethodRow
}

// Methods runs the comparison. It is the "survey table" that situates
// ECRIPSE among naive MC, quasi-MC, sequential importance sampling [8],
// statistical blockade [12] and subset simulation.
func Methods(seed int64, scale Scale, vdd float64) (MethodsResult, error) {
	var nNaive, nisSIS, nBlockade, nSubset, nisEcripse int
	switch scale {
	case Smoke:
		nNaive, nisSIS, nBlockade, nSubset, nisEcripse = 20000, 5000, 15000, 1000, 40000
	case Default:
		nNaive, nisSIS, nBlockade, nSubset, nisEcripse = 120000, 30000, 80000, 2000, 200000
	case Full:
		nNaive, nisSIS, nBlockade, nSubset, nisEcripse = 500000, 100000, 300000, 4000, 600000
	}
	cell := sram.NewCell(vdd)
	sigma := cell.SigmaVth()
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24}

	shiftOf := func(x linalg.Vector) sram.Shifts {
		var sh sram.Shifts
		for i := range sh {
			sh[i] = x[i] * sigma[i]
		}
		return sh
	}

	out := MethodsResult{Vdd: vdd}

	// Naive MC (also the reference).
	{
		var c montecarlo.Counter
		trial := func(r *rand.Rand) bool {
			c.Add(1)
			var sh sram.Shifts
			for i := range sh {
				sh[i] = sigma[i] * r.NormFloat64()
			}
			return cell.Fails(sh, snm)
		}
		series := montecarlo.Naive(rand.New(rand.NewSource(seed)), trial, nNaive, &c, 0)
		fin := series.Final()
		est := stats.Estimate{P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr, N: nNaive, Sims: c.Count()}
		out.Reference = est.P
		out.Rows = append(out.Rows, MethodRow{"naive MC", est})
	}

	// Quasi-MC naive (Halton).
	{
		var c montecarlo.Counter
		value := func(x linalg.Vector) float64 {
			c.Add(1)
			if cell.Fails(shiftOf(x), snm) {
				return 1
			}
			return 0
		}
		series := montecarlo.NaiveQMC(sram.NumTransistors, value, nNaive, &c, 0)
		fin := series.Final()
		out.Rows = append(out.Rows, MethodRow{"quasi-MC (Halton)",
			stats.Estimate{P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr, N: nNaive, Sims: c.Count()}})
	}

	// Conventional SIS [8].
	{
		var c montecarlo.Counter
		res := sis.Estimate(rand.New(rand.NewSource(seed+1)), sram.NumTransistors,
			cellValue(cell, &c), &c, &sis.Options{NIS: nisSIS}, nil)
		out.Rows = append(out.Rows, MethodRow{"sequential IS [8]", res.Estimate})
	}

	// Statistical blockade [12].
	{
		var c montecarlo.Counter
		fails := func(x linalg.Vector) bool {
			c.Add(1)
			return cell.Fails(shiftOf(x), snm)
		}
		res := blockade.Estimate(rand.New(rand.NewSource(seed+2)), sram.NumTransistors,
			fails, &c, nBlockade, nil)
		out.Rows = append(out.Rows, MethodRow{"statistical blockade [12]", res.Estimate})
	}

	// Subset simulation.
	{
		g := func(x linalg.Vector) float64 { return cell.ReadSNM(shiftOf(x), snm) }
		res := subset.Estimate(rand.New(rand.NewSource(seed+3)), sram.NumTransistors,
			g, &subset.Options{N: nSubset})
		out.Rows = append(out.Rows, MethodRow{"subset simulation", res.Estimate})
	}

	// ECRIPSE.
	{
		res, err := core.RDFOnly(rand.New(rand.NewSource(seed+4)), cell, core.Options{NIS: nisEcripse})
		if err != nil {
			return out, fmt.Errorf("methods ECRIPSE run: %w", err)
		}
		out.Rows = append(out.Rows, MethodRow{"ECRIPSE (proposed)", res.Estimate})
	}
	return out, nil
}

// Write renders the comparison table.
func (r MethodsResult) Write(w io.Writer) {
	fmt.Fprintf(w, "# estimator comparison, RDF-only read failure, Vdd=%.2f V (reference %.3e)\n", r.Vdd, r.Reference)
	fmt.Fprintf(w, "%-28s %12s %12s %8s %10s\n", "# method", "Pfail", "CI95", "relerr", "sims")
	for _, row := range r.Rows {
		e := row.Estimate
		fmt.Fprintf(w, "%-28s %12.4e %12.4e %8.3f %10d\n", row.Name, e.P, e.CI95, e.RelErr, e.Sims)
	}
}
