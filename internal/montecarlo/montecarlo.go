// Package montecarlo provides the estimation engines shared by the baseline
// and proposed methods: a simulation counter (the paper's x-axis is always
// "number of transistor-level simulations"), naive Monte Carlo, and
// importance sampling from Gaussian-mixture alternative distributions
// (paper eqs. (2), (4), (18), (19)), all with convergence-series recording.
package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
	"ecripse/internal/stats"
	"ecripse/internal/vecmath"
)

// Counter tallies transistor-level simulations. Every estimator in this
// repository routes its indicator evaluations through one Counter so that
// method-to-method comparisons count work identically.
//
// The count is maintained atomically, so a Counter owned by a running
// estimator can be read concurrently (progress reporting, service metrics).
type Counter struct {
	n int64

	limit   int64
	fired   int32
	onLimit func()
}

// Add records k simulations. If a budget installed with SetLimit is reached
// by this addition, the limit callback fires (exactly once).
func (c *Counter) Add(k int64) {
	n := atomic.AddInt64(&c.n, k)
	if lim := atomic.LoadInt64(&c.limit); lim > 0 && n >= lim {
		if atomic.CompareAndSwapInt32(&c.fired, 0, 1) && c.onLimit != nil {
			c.onLimit()
		}
	}
}

// Count returns the simulations so far.
func (c *Counter) Count() int64 { return atomic.LoadInt64(&c.n) }

// Reset zeroes the counter.
func (c *Counter) Reset() { atomic.StoreInt64(&c.n, 0) }

// SetLimit installs a simulation budget: the first Add that takes the count
// to max or beyond invokes stop (typically a context.CancelFunc), after
// which the estimator unwinds at its next cancellation checkpoint with a
// partial result. SetLimit must be called before the estimator starts; it is
// not safe to call concurrently with Add.
func (c *Counter) SetLimit(max int64, stop func()) {
	atomic.StoreInt64(&c.limit, max)
	atomic.StoreInt32(&c.fired, 0)
	c.onLimit = stop
}

// Value is a function giving the (conditional) failure value of a point in
// the normalized variability space: either a 0/1 indicator or, for the
// RTN-aware flow, the inner estimate Pfail_RTN(x) ∈ [0,1] of eq. (13).
type Value func(x linalg.Vector) float64

// Trial draws one sample from the nominal distribution and reports failure;
// used by naive Monte Carlo where each trial costs one simulation.
type Trial func(rng *rand.Rand) bool

// Naive runs n naive Monte Carlo trials (paper eq. (2)), recording a
// convergence point roughly every recordEvery simulations as counted by c.
func Naive(rng *rand.Rand, trial Trial, n int, c *Counter, recordEvery int) stats.Series {
	return NaiveCtx(context.Background(), rng, trial, n, c, recordEvery)
}

// NaiveCtx is Naive with cancellation: the context is checked before every
// trial, and on cancellation the partial convergence series accumulated so
// far is returned (with a final point appended so the trace ends at the
// cancellation state). No randomness is consumed by the checks, so for an
// uncancelled context the result is identical to Naive.
func NaiveCtx(ctx context.Context, rng *rand.Rand, trial Trial, n int, c *Counter, recordEvery int) stats.Series {
	if recordEvery <= 0 {
		recordEvery = n/50 + 1
	}
	var run stats.Running
	var series stats.Series
	nextRecord := c.Count() + int64(recordEvery)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return finishSeries(series, &run, c)
		}
		v := 0.0
		if trial(rng) {
			v = 1
		}
		run.Add(v)
		if c.Count() >= nextRecord || i == n-1 {
			series = append(series, stats.Point{
				Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
			})
			nextRecord = c.Count() + int64(recordEvery)
		}
	}
	return series
}

// finishSeries appends the current estimator state as a last point of a
// cancelled run, so partial traces end exactly where the work stopped.
func finishSeries(series stats.Series, run *stats.Running, c *Counter) stats.Series {
	if run.N() == 0 {
		return series
	}
	if last := series.Final(); last.Sims == c.Count() && len(series) > 0 {
		return series
	}
	return append(series, stats.Point{
		Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
	})
}

// Proposal is an alternative distribution Q(x) that can be sampled and
// evaluated; importance sampling weighs draws by P(x)/Q(x).
type Proposal interface {
	Sample(rng *rand.Rand) linalg.Vector
	LogPDF(x linalg.Vector) float64
}

// NaiveQMC is the quasi-Monte Carlo variant of the naive estimator: the
// sample points come from a Halton sequence mapped to N(0, I) instead of a
// pseudorandom stream. For *mean* estimation QMC improves the convergence
// constant; for rare events it cannot beat the hit-count limit, which is
// exactly the ablation this function supports. The reported confidence
// interval uses the i.i.d. formula and is therefore only indicative (a
// randomized QMC would be needed for rigorous intervals).
func NaiveQMC(dim int, value Value, n int, c *Counter, recordEvery int) stats.Series {
	if recordEvery <= 0 {
		recordEvery = n/50 + 1
	}
	h := randx.NewHalton(dim)
	var run stats.Running
	var series stats.Series
	for k := 0; k < n; k++ {
		run.Add(value(h.NextNormal()))
		if (k+1)%recordEvery == 0 || k == n-1 {
			series = append(series, stats.Point{
				Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
			})
		}
	}
	return series
}

// GMM is a Gaussian mixture with shared diagonal covariance — the
// alternative-distribution family of eq. (18), whose component means are
// particle positions. Weights are optional (nil means equal weights); a
// weighted mixture lets the proposal use the final measurement round's
// weights directly instead of losing diversity to resampling.
type GMM struct {
	Means   []linalg.Vector
	Sigma   linalg.Vector // shared per-dimension standard deviations
	Weights []float64     // optional; non-negative, need not be normalized

	// Cached terms for the fast LogPDF path and the component draw (built
	// lazily on first LogPDF or Sample call). The sync.Once makes
	// concurrent first calls safe: stage-2 importance sampling draws from
	// and evaluates a shared proposal from many goroutines.
	once     sync.Once
	invSigma linalg.Vector

	// logCoeffs[i] is component i's log(w_i/Σw) − Σ log σ_d − D/2·log 2π,
	// padded with −∞ to kpad entries, a multiple of the fold kernel's
	// 4-component block.
	logCoeffs []float64
	kpad      int

	// cum[j] is the running sum of the positive weights through component
	// pos[j], accumulated in randx.Categorical's order, so the last entry
	// is Categorical's total bit for bit.
	cum []float64
	pos []int

	// meansT is the structure-of-arrays means for the vector fold:
	// meansT[d*kpad+i] is component i's coordinate d (zero in the padding).
	meansT []float64
}

// useAVX2 selects the vector fold for LogPDF. It is vecmath's CPU check,
// held here so that tests can switch the vector path off.
var useAVX2 = vecmath.Enabled()

// prepare builds the LogPDF and Sample caches exactly once;
// Means/Sigma/Weights must not be mutated after the first LogPDF, PDF or
// Sample call.
func (g *GMM) prepare() { g.once.Do(g.buildCaches) }

func (g *GMM) buildCaches() {
	d := len(g.Sigma)
	g.invSigma = make(linalg.Vector, d)
	base := -0.5 * float64(d) * randx.Log2Pi
	for i, s := range g.Sigma {
		g.invSigma[i] = 1 / s
		base -= math.Log(s)
	}
	totalW := 0.0
	for i, w := range g.Weights {
		if w > 0 {
			totalW += w
			g.cum = append(g.cum, totalW)
			g.pos = append(g.pos, i)
		}
	}
	g.kpad = (len(g.Means) + 3) &^ 3
	g.logCoeffs = make([]float64, g.kpad)
	for i := range g.logCoeffs {
		c := base
		switch {
		case i >= len(g.Means):
			c = math.Inf(-1)
		case g.Weights == nil:
			c -= math.Log(float64(len(g.Means)))
		case g.Weights[i] > 0 && totalW > 0:
			c += math.Log(g.Weights[i] / totalW)
		default:
			c = math.Inf(-1)
		}
		g.logCoeffs[i] = c
	}
	g.meansT = make([]float64, d*g.kpad)
	for i, m := range g.Means {
		for dd := 0; dd < d && dd < len(m); dd++ {
			g.meansT[dd*g.kpad+i] = m[dd]
		}
	}
}

// Dim returns the dimensionality.
func (g *GMM) Dim() int { return len(g.Sigma) }

// Sample draws one point: a component chosen by weight plus diagonal
// Gaussian noise.
func (g *GMM) Sample(rng *rand.Rand) linalg.Vector {
	var m linalg.Vector
	if g.Weights == nil {
		m = g.Means[rng.Intn(len(g.Means))]
	} else {
		m = g.Means[g.component(rng)]
	}
	x := make(linalg.Vector, len(m))
	for i := range x {
		x[i] = m[i] + g.Sigma[i]*rng.NormFloat64()
	}
	return x
}

// component draws a component index by weight. From the same rng state it
// returns exactly randx.Categorical(rng, g.Weights): the scan there stops at
// the first index whose running sum exceeds u, and the running sum only
// grows at positive weights, so a binary search over the cached sums of the
// positive weights finds the same index in O(log k) instead of O(k).
func (g *GMM) component(rng *rand.Rand) int {
	g.prepare()
	n := len(g.cum)
	total := 0.0
	if n > 0 {
		total = g.cum[n-1]
	}
	if total <= 0 {
		return rng.Intn(len(g.Weights))
	}
	u := rng.Float64() * total
	lo, hi := 0, n // first j with u < cum[j] lies in [lo, hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < g.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == n {
		return len(g.Weights) - 1
	}
	return g.pos[lo]
}

// LogPDF returns log Q(x) via a numerically stable log-sum-exp over the
// mixture components.
//
// Mixtures of 8 or more components go through vecmath.GaussLogSumExp on
// AVX2 hardware: one kernel computes each 4-component block's quadratics
// over the SoA means, its log-terms and their exponentials, and folds them
// into the running maximum and sum, handing the rare block it cannot fold
// inside the exp envelope (the first finite term among them) to the scalar
// rule. Every operation is logPDFScalar's, in its order, so the result is
// bit for bit the scalar fold; logPDFScalar itself serves small mixtures
// and machines without the kernel.
func (g *GMM) LogPDF(x linalg.Vector) float64 {
	g.prepare()
	if len(g.Means) < 8 || !useAVX2 {
		return g.logPDFScalar(x)
	}
	return vecmath.GaussLogSumExp(x, g.invSigma, g.meansT, g.logCoeffs)
}

// logPDFScalar is the reference fold the vector path is pinned against; it
// also serves small mixtures and machines without the vector kernel.
// Running log-sum-exp: rescale the accumulator whenever a new maximum
// appears, so no per-call buffer is needed.
func (g *GMM) logPDFScalar(x linalg.Vector) float64 {
	maxLog := math.Inf(-1)
	s := 0.0
	for i, m := range g.Means {
		c := g.logCoeffs[i]
		if math.IsInf(c, -1) {
			continue
		}
		q := 0.0
		for d := range x {
			z := (x[d] - m[d]) * g.invSigma[d]
			q += z * z
		}
		l := c - 0.5*q
		switch {
		case l > maxLog:
			if !math.IsInf(maxLog, -1) {
				s *= math.Exp(maxLog - l)
			}
			maxLog = l
			s++
		case l-maxLog > -40:
			s += math.Exp(l - maxLog)
		}
	}
	if math.IsInf(maxLog, -1) {
		return math.Inf(-1)
	}
	return maxLog + math.Log(s)
}

// PDF returns Q(x).
func (g *GMM) PDF(x linalg.Vector) float64 { return math.Exp(g.LogPDF(x)) }

// DefensiveMixture blends a proposal with the nominal standard normal:
// Q'(x) = rho·P(x) + (1−rho)·Q(x). The blend bounds the importance weight
// P/Q' by 1/rho, taming the heavy weight tail that a narrow particle-cloud
// proposal produces for failure-region points it does not cover (the
// mixture-importance-sampling idea of Kanj et al., DAC 2006 — the paper's
// reference [4]).
type DefensiveMixture struct {
	Q   Proposal
	Rho float64 // weight of the nominal component, in (0,1)
	Dim int
}

// Sample implements Proposal.
func (d *DefensiveMixture) Sample(rng *rand.Rand) linalg.Vector {
	if rng.Float64() < d.Rho {
		return randx.NormalVector(rng, d.Dim)
	}
	return d.Q.Sample(rng)
}

// LogPDF implements Proposal.
func (d *DefensiveMixture) LogPDF(x linalg.Vector) float64 {
	lp := randx.StdNormalLogPDF(x) + math.Log(d.Rho)
	lq := d.Q.LogPDF(x) + math.Log(1-d.Rho)
	hi, lo := lp, lq
	if lq > lp {
		hi, lo = lq, lp
	}
	return hi + math.Log1p(math.Exp(lo-hi))
}

// ImportanceSample estimates E_P[value] with n draws from proposal q
// (paper eq. (19)): the k-th term is value(x_k)·P(x_k)/Q(x_k) with
// P the standard normal. Convergence points are recorded against c.
func ImportanceSample(rng *rand.Rand, q Proposal, value Value, n int, c *Counter, recordEvery int) stats.Series {
	return ImportanceSampleCtx(context.Background(), rng, q, value, n, c, recordEvery)
}

// ImportanceSampleCtx is ImportanceSample with cancellation: the context is
// checked before every draw, and on cancellation the partial series is
// returned with a final point recording the state at the stop. The checks
// consume no randomness, so an uncancelled context reproduces
// ImportanceSample exactly.
func ImportanceSampleCtx(ctx context.Context, rng *rand.Rand, q Proposal, value Value, n int, c *Counter, recordEvery int) stats.Series {
	if recordEvery <= 0 {
		recordEvery = n/50 + 1
	}
	var run stats.Running
	var series stats.Series
	for k := 0; k < n; k++ {
		if ctx.Err() != nil {
			return finishSeries(series, &run, c)
		}
		x := q.Sample(rng)
		v := value(x)
		term := 0.0
		if v > 0 {
			logW := randx.StdNormalLogPDF(x) - q.LogPDF(x)
			term = v * math.Exp(logW)
		}
		run.Add(term)
		// Record every recordEvery samples; the x-coordinate is the
		// simulation counter (the paper's cost axis), which advances only
		// when the blockade lets a simulation through.
		if (k+1)%recordEvery == 0 || k == n-1 {
			series = append(series, stats.Point{
				Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
			})
		}
	}
	return series
}
