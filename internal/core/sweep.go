package core

import (
	"fmt"
	"math/rand"

	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// SweepPoint is one duty-ratio sample of the Fig. 8 experiment.
type SweepPoint struct {
	Alpha  float64
	Result Result
}

// DutySweep reproduces the workload of the paper's Fig. 8: the RTN-aware
// failure probability at each duty ratio, with the boundary initialization
// (and the trained classifier) shared across all bias conditions — the
// optimization the paper highlights with Fig. 7(b). It stops at the first
// point whose run fails and returns the points before it with that error.
func DutySweep(rng *rand.Rand, cell *sram.Cell, cfg rtn.Config, alphas []float64, opts Options) ([]SweepPoint, error) {
	eng := NewEngine(cell, nil, opts)
	eng.Init(rng)
	out := make([]SweepPoint, 0, len(alphas))
	for _, a := range alphas {
		res, err := eng.Run(rng, rtn.NewSampler(cell, cfg, a))
		if err != nil {
			return out, fmt.Errorf("duty sweep at alpha %g: %w", a, err)
		}
		out = append(out, SweepPoint{Alpha: a, Result: res})
	}
	return out, nil
}

// RDFOnly estimates the failure probability without RTN (the paper's
// reference value 1.33e-4) using a fresh engine.
func RDFOnly(rng *rand.Rand, cell *sram.Cell, opts Options) (Result, error) {
	return NewEngine(cell, nil, opts).Run(rng, nil)
}
