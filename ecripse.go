// Package ecripse is a Go reproduction of "ECRIPSE: An Efficient Method for
// Calculating RTN-Induced Failure Probability of an SRAM Cell" (Awano,
// Hiromoto, Sato — DATE 2015).
//
// The library estimates the read-failure probability of a 6T SRAM cell
// under process variation (random dopant fluctuation, RDF) and random
// telegraph noise (RTN), using the paper's two-stage flow: an ensemble of
// particle filters estimates the optimal importance-sampling alternative
// distribution, and an SVM classifier over degree-4 polynomial features
// blockades most transistor-level simulations.
//
// Quick start:
//
//	cell := ecripse.NewCell(ecripse.VddNominal)
//	est := ecripse.New(cell, ecripse.Options{})
//	res, err := est.FailureProbability(1) // RDF-only, seed 1
//	if err != nil {
//		log.Fatal(err) // e.g. no failure region within the search radius
//	}
//	fmt.Println(res.Estimate)
//
//	cfg := ecripse.TableIRTN(cell)
//	withRTN, err := est.FailureProbabilityRTN(1, cfg, 0.5) // duty ratio 0.5
//
// The cost model matches the paper: every estimator routes its
// transistor-level simulations through one counter, and Result.Series is the
// convergence trace of the estimate against that counter (the x-axis of the
// paper's Figs. 6 and 7).
package ecripse

import (
	"context"
	"fmt"
	"math/rand"

	"ecripse/internal/blockade"
	"ecripse/internal/core"
	"ecripse/internal/device"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/rtn"
	"ecripse/internal/sis"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
	"ecripse/internal/subset"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Cell is the 6T SRAM cell of the paper's Table I.
	Cell = sram.Cell
	// Shifts is a per-transistor threshold-voltage shift vector [V].
	Shifts = sram.Shifts
	// SNMOptions controls butterfly sampling for noise margins.
	SNMOptions = sram.SNMOptions
	// SNMResult carries the two lobe margins of a butterfly plot.
	SNMResult = sram.SNMResult
	// Curve is a sampled voltage-transfer characteristic.
	Curve = sram.Curve
	// Options tunes the ECRIPSE estimator (see internal/core).
	Options = core.Options
	// Result is an estimation outcome with convergence trace and cost split.
	Result = core.Result
	// SweepPoint is one duty-ratio sample of a Fig. 8-style sweep.
	SweepPoint = core.SweepPoint
	// RTNConfig holds the RTN model constants (Table I).
	RTNConfig = rtn.Config
	// RTNTrap is a two-state defect for time-domain traces.
	RTNTrap = rtn.Trap
	// Estimate is a point estimate with 95% confidence interval.
	Estimate = stats.Estimate
	// Series is a convergence trace (estimate vs. simulation count).
	Series = stats.Series
	// Point is one entry of a Series.
	Point = stats.Point
	// Vector is a dense float64 vector in the normalized variability space.
	Vector = linalg.Vector
	// FailureMode selects the cell specification the estimator checks.
	FailureMode = core.FailureMode
	// CellSpec describes a custom 6T geometry for design-space exploration.
	CellSpec = sram.CellSpec
	// PFRoundDiag is one round of stage-1 convergence diagnostics
	// (Result.PFRounds).
	PFRoundDiag = core.PFRoundDiag
	// FilterDiag is one particle filter's convergence state within a round.
	FilterDiag = core.FilterDiag
)

// RoundSummary reduces a round's per-filter diagnostics to its worst-case
// collapse signals: minimum effective sample size, maximum single-weight
// fraction, and minimum count of unique resampling survivors.
func RoundSummary(filters []FilterDiag) (minESS, maxFrac float64, minUnique int) {
	return core.RoundSummary(filters)
}

// Failure modes: the paper's read-stability criterion plus the write and
// hold extensions (set Options.Mode).
const (
	ReadFailure  = core.ReadFailure
	WriteFailure = core.WriteFailure
	HoldFailure  = core.HoldFailure
)

// Supply voltages of the paper's experiments.
const (
	// VddNominal is the 16 nm HP nominal supply (Figs. 6, 8).
	VddNominal = device.VddNominal
	// VddLow is the lowered supply of Fig. 7, where naive MC converges.
	VddLow = device.VddLow
)

// Transistor indices of the Shifts vector, in Table I order.
const (
	L1 = sram.L1 // load (PMOS) on the V1 side
	L2 = sram.L2
	D1 = sram.D1 // driver (NMOS)
	D2 = sram.D2
	A1 = sram.A1 // access (NMOS)
	A2 = sram.A2
	// NumTransistors is the dimensionality of the variability space.
	NumTransistors = sram.NumTransistors
)

// NewCell builds the Table I cell at the given supply voltage.
func NewCell(vdd float64) *Cell { return sram.NewCell(vdd) }

// NewCellAt builds the Table I cell at the given supply voltage and
// junction temperature [K] (reads and retention degrade with temperature;
// write-ability improves).
func NewCellAt(vdd, tempK float64) *Cell { return sram.NewCellAt(vdd, tempK) }

// NewCellFrom builds a cell from a custom geometry specification; zero
// fields take the Table I values.
func NewCellFrom(spec CellSpec) *Cell { return sram.NewCellFrom(spec) }

// TableIRTN returns the RTN model constants of Table I, calibrated to the
// cell (see DESIGN.md §2 for the calibration discussion).
func TableIRTN(cell *Cell) RTNConfig { return rtn.TableIConfig(cell) }

// Estimator is the user-facing handle for the ECRIPSE flow. It keeps the
// boundary initialization and the trained classifier across calls so that
// multiple gate-bias conditions share their cost, as in the paper's
// Figs. 7(b) and 8.
type Estimator struct {
	cell   *Cell
	opts   Options
	engine *core.Engine
}

// New creates an estimator for the cell. Zero-valued Options select the
// defaults documented in the Options type.
func New(cell *Cell, opts Options) *Estimator {
	return &Estimator{
		cell:   cell,
		opts:   opts,
		engine: core.NewEngine(cell, nil, opts),
	}
}

// Simulations returns the total transistor-level simulations consumed so far.
func (e *Estimator) Simulations() int64 { return e.engine.Counter.Count() }

// ErrNoFailureRegion is the error a run returns when boundary search finds
// no failing direction within the search radius: the estimator stops there
// with no estimate, rather than report a probability of zero. Test for it
// with errors.Is.
var ErrNoFailureRegion = core.ErrNoFailureRegion

// FailureProbability estimates the RDF-only failure probability
// (the configuration of the paper's Fig. 6 and the 1.33e-4 reference).
// A run that ends without an estimate returns an error, such as one
// wrapping ErrNoFailureRegion.
func (e *Estimator) FailureProbability(seed int64) (Result, error) {
	return e.FailureProbabilityCtx(context.Background(), seed)
}

// FailureProbabilityCtx is FailureProbability with cancellation: when ctx
// fires (deadline, interrupt, or a LimitSims budget), the run stops cleanly
// at the next checkpoint and the partial Result is returned together with
// ctx.Err(). With an uncancelled context it is identical to
// FailureProbability.
func (e *Estimator) FailureProbabilityCtx(ctx context.Context, seed int64) (Result, error) {
	return e.engine.RunCtx(ctx, rand.New(rand.NewSource(seed)), nil)
}

// FailureProbabilityRTN estimates the RTN-aware failure probability at the
// storage duty ratio alpha (eqs. (11)–(13)), with FailureProbability's
// errors.
func (e *Estimator) FailureProbabilityRTN(seed int64, cfg RTNConfig, alpha float64) (Result, error) {
	return e.FailureProbabilityRTNCtx(context.Background(), seed, cfg, alpha)
}

// FailureProbabilityRTNCtx is FailureProbabilityRTN with cancellation (see
// FailureProbabilityCtx).
func (e *Estimator) FailureProbabilityRTNCtx(ctx context.Context, seed int64, cfg RTNConfig, alpha float64) (Result, error) {
	sampler := rtn.NewSampler(e.cell, cfg, alpha)
	return e.engine.RunCtx(ctx, rand.New(rand.NewSource(seed)), sampler)
}

// LimitSims installs a transistor-level simulation budget on the
// estimator's counter: the first simulation that reaches max invokes stop
// (typically a context.CancelFunc wired to the ctx passed to a *Ctx method),
// so the run unwinds cleanly with a partial result. Call it before starting
// a run.
func (e *Estimator) LimitSims(max int64, stop func()) {
	e.engine.Counter.SetLimit(max, stop)
}

// DutySweep runs the Fig. 8 workload: one RTN-aware estimate per duty
// ratio, sharing initialization and classifier across all points. It stops
// at the first point whose run fails and returns the points before it with
// that error.
func (e *Estimator) DutySweep(seed int64, cfg RTNConfig, alphas []float64) ([]SweepPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SweepPoint, 0, len(alphas))
	for _, a := range alphas {
		res, err := e.engine.Run(rng, rtn.NewSampler(e.cell, cfg, a))
		if err != nil {
			return out, fmt.Errorf("duty sweep at alpha %g: %w", a, err)
		}
		out = append(out, SweepPoint{Alpha: a, Result: res})
	}
	return out, nil
}

// NaiveMC runs the naive Monte Carlo baseline (paper eq. (2)): n trials at
// the cell's bias, optionally with RTN at duty alpha (pass a negative alpha
// for RDF-only). Every trial costs one transistor-level simulation.
func NaiveMC(cell *Cell, seed int64, n int, cfg RTNConfig, alpha float64) (Series, Estimate) {
	rng := rand.New(rand.NewSource(seed))
	sigma := cell.SigmaVth()
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	var sampler *rtn.Sampler
	if alpha >= 0 {
		sampler = rtn.NewSampler(cell, cfg, alpha)
	}
	var c montecarlo.Counter
	trial := func(r *rand.Rand) bool {
		c.Add(1)
		var sh sram.Shifts
		for i := range sh {
			sh[i] = sigma[i] * r.NormFloat64()
		}
		if sampler != nil {
			sh = sh.Add(sampler.Sample(r))
		}
		return cell.Fails(sh, snm)
	}
	series := montecarlo.Naive(rng, trial, n, &c, 0)
	fin := series.Final()
	return series, Estimate{P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr, N: n, Sims: c.Count()}
}

// Conventional runs the sequential-importance-sampling baseline in the
// style of the paper's reference [8] (every evaluation fully simulated).
// It returns the convergence series and the estimate; opts may be nil.
func Conventional(cell *Cell, seed int64, nis int) (Series, Estimate) {
	rng := rand.New(rand.NewSource(seed))
	sigma := cell.SigmaVth()
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	var c montecarlo.Counter
	value := func(x linalg.Vector) float64 {
		c.Add(1)
		var sh sram.Shifts
		for i := range sh {
			sh[i] = x[i] * sigma[i]
		}
		if cell.Fails(sh, snm) {
			return 1
		}
		return 0
	}
	res := sis.Estimate(rng, sram.NumTransistors, value, &c, &sis.Options{NIS: nis}, nil)
	return res.Series, res.Estimate
}

// StatisticalBlockade runs the classifier-filtered nominal-sampling
// baseline of the paper's reference [12] (Singhee & Rutenbar): n nominal
// Monte Carlo samples streamed through an SVM filter so only candidate
// failures are simulated. Unlike ECRIPSE it does not use importance
// sampling, so its accuracy stays hit-count limited; it exists for the
// Section II-C comparison.
func StatisticalBlockade(cell *Cell, seed int64, n int) (Series, Estimate) {
	rng := rand.New(rand.NewSource(seed))
	sigma := cell.SigmaVth()
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	var c montecarlo.Counter
	fails := func(x linalg.Vector) bool {
		c.Add(1)
		var sh sram.Shifts
		for i := range sh {
			sh[i] = x[i] * sigma[i]
		}
		return cell.Fails(sh, snm)
	}
	res := blockade.Estimate(rng, sram.NumTransistors, fails, &c, n, nil)
	return res.Series, res.Estimate
}

// SubsetSimulation estimates the cell failure probability by subset
// simulation (Au & Beck) on the continuous read-noise-margin function: a
// classifier-free, proposal-free rare-event baseline. n is the samples per
// level; the simulation count is roughly n × levels.
func SubsetSimulation(cell *Cell, seed int64, n int) Estimate {
	sigma := cell.SigmaVth()
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	g := func(x linalg.Vector) float64 {
		var sh sram.Shifts
		for i := range sh {
			sh[i] = x[i] * sigma[i]
		}
		return cell.ReadSNM(sh, snm)
	}
	rng := rand.New(rand.NewSource(seed))
	res := subset.Estimate(rng, sram.NumTransistors, g, &subset.Options{N: n})
	return res.Estimate
}

// RTNTraceForCell generates a time-domain ΔVth waveform of transistor tr
// under duty ratio alpha — the picture of the paper's Fig. 3(b).
func RTNTraceForCell(cell *Cell, cfg RTNConfig, seed int64, tr int, alpha, dt float64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	sampler := rtn.NewSampler(cell, cfg, alpha)
	traps := sampler.CellTraps(rng, tr)
	return rtn.Trace(rng, traps, dt, n)
}
