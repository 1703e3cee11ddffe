// Package core implements ECRIPSE itself: the two-stage, classifier-
// accelerated, particle-filter importance-sampling estimator of the paper's
// Section III, with the RTN model integrated per eqs. (11)–(13), shared
// boundary initialization across gate-bias conditions, and the duty-ratio
// sweep that regenerates Fig. 8.
package core

import (
	"ecripse/internal/linalg"
	"ecripse/internal/obsv"
)

// FailureMode selects which cell specification the indicator checks.
type FailureMode int

const (
	// ReadFailure is the paper's criterion: negative read noise margin.
	ReadFailure FailureMode = iota
	// WriteFailure is the extension criterion: negative static write margin
	// (the old state survives the write bias).
	WriteFailure
	// HoldFailure checks the retention butterfly (word line off).
	HoldFailure
)

// String implements fmt.Stringer.
func (m FailureMode) String() string {
	switch m {
	case WriteFailure:
		return "write"
	case HoldFailure:
		return "hold"
	default:
		return "read"
	}
}

// Options are the tuning knobs of the estimator. Zero values select the
// defaults given in the comments; they correspond to the paper's settings
// where the paper states them (ten particle-filter rounds, degree-4
// polynomial features, two filters for the two failure lobes).
type Options struct {
	// Mode selects the failure criterion (default ReadFailure, the paper's).
	Mode FailureMode

	// Covariance optionally replaces the independent Pelgrom sigmas with a
	// full 6x6 ΔVth covariance matrix [V²]. The engine whitens it (paper
	// §II-A: "any set of random variables can be uncorrelated using
	// whitening") so the estimator still works in a standard-normal space.
	Covariance *linalg.Matrix

	// Stage 1: alternative-distribution estimation.
	Particles int // particles per filter (default 40)
	Filters   int // particle filters in the ensemble (default 2)
	// PFIters is the number of prediction/measurement/resampling rounds
	// (default 10, as in the paper). A negative value skips stage 1
	// entirely — the single-stage ablation, where the alternative
	// distribution is built from the boundary particles alone.
	PFIters    int
	Kernel     float64 // prediction-kernel sigma in normalized units (default 0.3)
	Directions int     // boundary-search directions (default 256)
	RMax       float64 // boundary-search radius in sigmas (default 8)
	RTol       float64 // boundary-search tolerance (default 0.05)

	// Classifier blockade.
	PolyDegree   int     // polynomial feature degree (default 4, as in the paper)
	Lambda       float64 // SVM regularization (default 1e-4)
	Band         float64 // stage-2 uncertainty band on the SVM score (default 0.15)
	WarmupTrain  int     // simulated labels for initial training (default 400)
	TrainFrac    float64 // stage-1 fraction of samples simulated for labels (default 0.05)
	Epochs       int     // batch-training epochs over the warm-up set (default 25)
	NoClassifier bool    // ablation: simulate everything (no blockade)

	// Stage 2: importance sampling.
	NIS         int     // importance samples (default 20000)
	M           int     // RTN draws per RDF sample; ignored without RTN (default 20)
	Rho         float64 // defensive-mixture weight of the nominal P (default 0.1)
	RecordEvery int     // convergence-series resolution in simulations

	// IndicatorHist, when non-nil, receives the wall-clock seconds of every
	// true-indicator evaluation (one transistor-level simulation). Purely
	// observational: timings go only to the histogram, never into results,
	// so determinism is unaffected. Nil (the default) costs one pointer
	// check per call.
	IndicatorHist *obsv.Histogram

	// Parallelism is the worker-goroutine count for the engine's hot loops
	// (boundary search, classifier warm-up, particle-filter measurement,
	// stage-2 importance sampling). Results are bit-identical for any value:
	// every sample draws from a counter-based substream keyed by its global
	// index, and stateful classifier updates are replayed in index order at
	// fixed-size batch barriers. Default 1 (serial execution of the same
	// deterministic schedule); negative values also mean 1.
	Parallelism int
}

func (o *Options) fill() {
	if o.Particles == 0 {
		o.Particles = 40
	}
	if o.Filters == 0 {
		o.Filters = 2
	}
	if o.PFIters == 0 {
		o.PFIters = 10
	}
	if o.Kernel == 0 {
		o.Kernel = 0.3
	}
	if o.Directions == 0 {
		o.Directions = 256
	}
	if o.RMax == 0 {
		o.RMax = 8
	}
	if o.RTol == 0 {
		o.RTol = 0.05
	}
	if o.PolyDegree == 0 {
		o.PolyDegree = 4
	}
	if o.Lambda == 0 {
		o.Lambda = 1e-4
	}
	if o.Band == 0 {
		o.Band = 0.15
	}
	if o.WarmupTrain == 0 {
		o.WarmupTrain = 400
	}
	if o.TrainFrac == 0 {
		o.TrainFrac = 0.05
	}
	if o.Epochs == 0 {
		o.Epochs = 25
	}
	if o.NIS == 0 {
		o.NIS = 20000
	}
	if o.M == 0 {
		o.M = 20
	}
	if o.Rho == 0 {
		o.Rho = 0.1
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
}
