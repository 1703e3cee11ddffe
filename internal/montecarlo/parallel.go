package montecarlo

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ecripse/internal/stats"
)

// ParFor evaluates fn(worker, i) for every i in [0, n) across workers
// goroutines (0 = GOMAXPROCS; clamped to n). Indices are handed out
// dynamically from a shared atomic counter, so uneven per-index cost —
// classified-for-free versus fully simulated samples — load-balances
// automatically. Determinism is the caller's contract: fn must confine its
// effects to index-i state (write slot i, draw from substream i), so the
// outcome is independent of which worker runs which index and of the order
// indices complete. workers == 1 runs inline with no goroutines.
func ParFor(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// ClampWorkers resolves a worker-count option against a unit-of-work count:
// 0 (or negative) means GOMAXPROCS, and the result never exceeds n or drops
// below 1. Callers use it to size per-worker scratch before a ParFor.
func ClampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParOptions configures ImportanceSamplePar.
type ParOptions struct {
	// Seed keys every per-sample substream; same seed ⇒ same result.
	Seed int64
	// Workers is the goroutine count (0 = GOMAXPROCS, 1 = inline serial).
	Workers int
	// Batch is the barrier size in samples. It must not depend on Workers —
	// adaptive state evolves at batch boundaries, so changing it changes the
	// result (deterministically). 0 selects DefaultBatch.
	Batch int
	// Flush, if set, is called after each batch's samples [lo, hi) have all
	// been evaluated and before their terms are folded into the estimate.
	// This is the barrier where the caller applies deferred stateful work
	// (classifier updates) in index order.
	Flush func(lo, hi int)
	// OnBatch, if set, is called after each batch's terms have been folded,
	// with the number of samples consumed so far and the estimator state as a
	// Point (Sims carries the counter's simulation count). It runs on the
	// barrier (single-threaded) and sees deterministic values, so it is safe
	// to stream as a convergence diagnostic without perturbing results.
	OnBatch func(samples int, pt stats.Point)
	// PipeStats, if set, receives the run's overlap/stall tally.
	// Wall-clock, observational: the driver never reads it back.
	PipeStats *PipelineStats
}

// DefaultBatch is the stage-2 barrier size: small enough that the classifier
// adapts throughout the run and budget stops stay tight, large enough that
// barrier synchronization is noise against per-sample simulation cost.
const DefaultBatch = 256
