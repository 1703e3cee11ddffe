package montecarlo

import (
	"context"
	"math/rand"

	"ecripse/internal/stats"
)

// NaiveBatched runs n naive Monte Carlo trials with the indicator
// evaluations settled in batches: draw(rng, slot) stages trial i's sample
// point into the given batch slot — consuming exactly the randomness the
// scalar Trial would, in the same sequential order on rng — and
// label(slots, fails) settles the staged slots [0, slots) in one batched
// indicator evaluation, billing the counter for them.
//
// Each trial must cost exactly one counted simulation and c must be
// private to this run; under that contract the recording schedule —
// Naive checks the counter after every trial — is replayed exactly, so
// the returned series is bit-identical to Naive over the equivalent
// scalar Trial. The context is checked at batch boundaries (Naive checks
// per trial); an uncancelled run is unaffected.
func NaiveBatched(ctx context.Context, rng *rand.Rand, draw func(rng *rand.Rand, slot int), label func(slots int, fails []bool), n, batch int, c *Counter, recordEvery int) stats.Series {
	if recordEvery <= 0 {
		recordEvery = n/50 + 1
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	var run stats.Running
	var series stats.Series
	fails := make([]bool, batch)
	nextRecord := c.Count() + int64(recordEvery)
	for lo := 0; lo < n; lo += batch {
		if ctx.Err() != nil {
			return finishSeries(series, &run, c)
		}
		hi := lo + batch
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			draw(rng, i-lo)
		}
		base := c.Count()
		label(hi-lo, fails[:hi-lo])
		// Replay the scalar recording tail: after trial i the scalar
		// counter reads base + (i−lo+1), one simulation per trial.
		for i := lo; i < hi; i++ {
			v := 0.0
			if fails[i-lo] {
				v = 1
			}
			run.Add(v)
			sims := base + int64(i-lo+1)
			if sims >= nextRecord || i == n-1 {
				series = append(series, stats.Point{
					Sims: sims, P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
				})
				nextRecord = sims + int64(recordEvery)
			}
		}
	}
	return series
}
