// Package blockade implements the statistical-blockade baseline of the
// paper's reference [12] (Singhee & Rutenbar, TCAD 2009): a classifier
// trained on an initial Monte Carlo batch filters the subsequent sample
// stream so that only candidate failures reach the transistor-level
// simulator.
//
// The paper's Section II-C discusses exactly this method and how ECRIPSE
// differs: the blockade still samples from the *nominal* distribution, so
// its cost to resolve a rare event is bounded below by the naive hit count;
// combining the classifier with importance sampling (ECRIPSE) removes that
// floor. This package exists to make that comparison runnable.
package blockade

import (
	"context"
	"math/rand"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/randx"
	"ecripse/internal/stats"
	"ecripse/internal/svm"
)

// Options configures the statistical-blockade estimator.
type Options struct {
	TrainN      int     // initial fully-simulated training batch (default 2000)
	PolyDegree  int     // classifier feature degree (default 2, as in [12]-style blockades)
	Lambda      float64 // SVM regularization (default 1e-4)
	Band        float64 // conservative band: |score| < Band is simulated (default 1.0)
	Epochs      int     // training epochs (default 25)
	RecordEvery int     // series resolution (default n/50)
}

func (o *Options) fill() {
	if o.TrainN == 0 {
		o.TrainN = 2000
	}
	if o.PolyDegree == 0 {
		o.PolyDegree = 2
	}
	if o.Lambda == 0 {
		o.Lambda = 1e-4
	}
	if o.Band == 0 {
		o.Band = 1.0
	}
	if o.Epochs == 0 {
		o.Epochs = 25
	}
}

// Result carries the estimate, its trace, and the filter statistics.
type Result struct {
	Series    stats.Series
	Estimate  stats.Estimate
	TrainSims int64 // simulations spent on the training batch
	Passed    int64 // samples the filter let through to the simulator
	Blocked   int64 // samples answered by the classifier alone
}

// Estimate runs statistical blockade: train on an initial batch, then
// stream n nominal samples through the classifier, simulating only the
// predicted-fail and in-band samples. dim is the variability-space
// dimensionality; fails is the (counted) indicator.
func Estimate(rng *rand.Rand, dim int, fails func(linalg.Vector) bool, c *montecarlo.Counter, n int, opts *Options) Result {
	res, _ := EstimateCtx(context.Background(), rng, dim, fails, c, n, opts)
	return res
}

// EstimateCtx is Estimate with cancellation, checked before every simulated
// training label and before every streamed sample. On cancellation the
// partial Result is returned with ctx.Err(); with an uncancelled context it
// is bit-identical to Estimate.
func EstimateCtx(ctx context.Context, rng *rand.Rand, dim int, fails func(linalg.Vector) bool, c *montecarlo.Counter, n int, opts *Options) (Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.fill()
	if o.RecordEvery <= 0 {
		o.RecordEvery = n/50 + 1
	}

	// Training batch: plain Monte Carlo, every sample simulated.
	trainStart := c.Count()
	cls := svm.NewClassifier(svm.NewPolyFeatures(dim, o.PolyDegree, 0), o.Lambda)
	xs := make([]linalg.Vector, 0, o.TrainN)
	ys := make([]bool, 0, o.TrainN)
	positives := 0
	for i := 0; i < o.TrainN && ctx.Err() == nil; i++ {
		x := randx.NormalVector(rng, dim)
		y := fails(x)
		xs = append(xs, x)
		ys = append(ys, y)
		if y {
			positives++
		}
	}
	// Rare events leave the training set massively imbalanced; oversample
	// the failures to roughly 1:2 so the hyper-plane does not collapse onto
	// "always pass" (the class-weighting trick standard in blockade use).
	trained := positives > 0
	if trained {
		bx, by := xs, ys
		reps := (o.TrainN - positives) / (2 * positives)
		for r := 0; r < reps; r++ {
			for i := range xs {
				if ys[i] {
					bx = append(bx, xs[i])
					by = append(by, true)
				}
			}
		}
		cls.Train(rng, bx, by, o.Epochs)
	}
	trainSims := c.Count() - trainStart

	// Filtered stream. The training batch itself contributes to the
	// estimate (its labels are exact).
	var run stats.Running
	for _, y := range ys {
		v := 0.0
		if y {
			v = 1
		}
		run.Add(v)
	}
	var scorer *svm.Scorer
	if trained {
		scorer = cls.NewScorer()
	}
	return stream(ctx, rng, dim, fails, c, n, o, scorer, &run, trainSims, trainStart)
}

// EstimateWarmCtx is the warm-start entry: it runs the filtered stream with a
// classifier trained elsewhere — typically at the adjacent point of a
// parameter sweep — and skips the TrainN simulation batch entirely, so
// TrainSims is always 0 and the estimate is built from the streamed samples
// alone. An untrained (or nil) classifier streams unfiltered, exactly like a
// cold run whose training batch found no failures. Randomness consumption
// matches the streaming phase of EstimateCtx draw-for-draw.
func EstimateWarmCtx(ctx context.Context, rng *rand.Rand, dim int, fails func(linalg.Vector) bool, c *montecarlo.Counter, n int, opts *Options, cls *svm.Classifier) (Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.fill()
	if o.RecordEvery <= 0 {
		o.RecordEvery = n/50 + 1
	}
	var scorer *svm.Scorer
	if cls != nil && cls.Trained() {
		scorer = cls.NewScorer()
	}
	var run stats.Running
	return stream(ctx, rng, dim, fails, c, n, o, scorer, &run, 0, c.Count())
}

// stream is the shared filtered-stream body: n nominal draws scored in
// batches, with only predicted-fail and in-band samples simulated.
// run may already carry the training batch's exact labels; startCount anchors
// the total-sims accounting.
func stream(ctx context.Context, rng *rand.Rand, dim int, fails func(linalg.Vector) bool, c *montecarlo.Counter, n int, o Options, scorer *svm.Scorer, run *stats.Running, trainSims, startCount int64) (Result, error) {
	// The stream is processed in fixed-size batches so the classifier scores
	// go through the batch kernel (nothing trains the classifier while it
	// streams, so the scorer's view of it is frozen). Only the draws consume the rng, and
	// the batch draw replicates randx.NormalVector's per-component order, so
	// the sample stream — and with it every simulate/block decision — is
	// bit-identical to the per-sample loop. The filter condition folds to a
	// single threshold: Predict ∨ Uncertain ⇔ score > −Band.
	const scoreBatchN = 256
	backing := make(linalg.Vector, scoreBatchN*dim)
	batch := make([]linalg.Vector, 0, scoreBatchN)
	scores := make([]float64, scoreBatchN)

	res := Result{TrainSims: trainSims}
	var series stats.Series
outer:
	for k := 0; k < n; {
		m := n - k
		if m > scoreBatchN {
			m = scoreBatchN
		}
		batch = batch[:0]
		for j := 0; j < m; j++ {
			if ctx.Err() != nil {
				break
			}
			x := backing[j*dim : (j+1)*dim : (j+1)*dim]
			for d := range x {
				x[d] = rng.NormFloat64()
			}
			batch = append(batch, x)
		}
		if scorer != nil && len(batch) > 0 {
			scorer.ScoreBatch(batch, scores[:len(batch)])
		}
		for j, x := range batch {
			if ctx.Err() != nil {
				break outer
			}
			var failed bool
			if scorer == nil || scores[j] > -o.Band {
				failed = fails(x) // candidate failure (or no filter): simulate
				res.Passed++
			} else {
				failed = false // blockaded: trusted pass
				res.Blocked++
			}
			v := 0.0
			if failed {
				v = 1
			}
			run.Add(v)
			if (k+1)%o.RecordEvery == 0 || k == n-1 {
				series = append(series, stats.Point{
					Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
				})
			}
			k++
		}
		if len(batch) < m {
			break // cancelled mid-draw
		}
	}
	if ctx.Err() != nil && run.N() > 0 && (len(series) == 0 || series.Final().Sims != c.Count()) {
		// Cancelled: close the partial trace at the stopping state.
		series = append(series, stats.Point{
			Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
		})
	}
	res.Series = series
	fin := series.Final()
	res.Estimate = stats.Estimate{
		P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr,
		N: run.N(), Sims: c.Count() - startCount,
	}
	return res, ctx.Err()
}
