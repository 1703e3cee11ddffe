package core

import (
	"ecripse/internal/linalg"
	"ecripse/internal/svm"
)

// stage2Batch is the barrier size of the stage-2 importance-sampling loop.
// It is a fixed constant — never derived from the worker count — because the
// classifier's adaptation schedule (and with it every downstream number)
// changes with the batch size, and results must be identical at any
// parallelism level.
const stage2Batch = 256

// labelObs is one simulated label deferred for classifier replay.
type labelObs struct {
	u      linalg.Vector
	failed bool
}

// batchLabeler is the engine's deterministic-parallel labeling path. Within
// a batch, worker goroutines label samples against the classifier state
// frozen at the batch start: confident samples are classified for free,
// everything else is simulated and the (point, label) observation is parked
// in the slot of its global sample index. At the barrier, flushRange applies
// the parked observations to the classifier in index order — the exact
// update sequence a serial run of the same schedule would produce, so the
// evolving weights (and every later decision) are scheduling-independent.
type batchLabeler struct {
	e       *Engine
	trained bool // classifier state frozen at the last barrier
	pending [][]labelObs
	perW    []*svm.Scorer // per-worker scorers (feature scratch)

	// Flip accounting for the health watchdog (countFlips gates the extra
	// barrier-time Score per replayed observation). Both counters advance
	// only inside flushRange — single-threaded, index-ordered — so they are
	// identical at any worker count. Cumulative; the engine reads deltas at
	// round/barrier boundaries.
	countFlips   bool
	flipReplayed int64 // observations replayed with a trained classifier
	flipDisagree int64 // replays whose simulated label contradicted the prediction
}

func newBatchLabeler(e *Engine) *batchLabeler {
	return &batchLabeler{e: e, perW: make([]*svm.Scorer, e.Opts.Parallelism)}
}

// begin re-frames the labeler for n sample indices and re-freezes the
// classifier state.
func (l *batchLabeler) begin(n int) {
	if cap(l.pending) < n {
		l.pending = make([][]labelObs, n)
	}
	l.pending = l.pending[:n]
	l.trained = !l.e.classifierOff() && l.e.classifier.Trained()
}

// record parks a simulated observation of sample idx for barrier replay.
// Race-free: each index is owned by exactly one worker at a time.
func (l *batchLabeler) record(idx int, u linalg.Vector, failed bool) {
	if l.e.classifierOff() {
		return
	}
	l.pending[idx] = append(l.pending[idx], labelObs{u: u, failed: failed})
}

// flushRange replays the parked observations of samples [lo, hi) into the
// classifier in index order and re-freezes the trained flag. Must be called
// single-threaded, at a barrier.
func (l *batchLabeler) flushRange(lo, hi int) {
	if l.e.classifierOff() {
		return
	}
	for idx := lo; idx < hi; idx++ {
		for _, o := range l.pending[idx] {
			if l.countFlips && l.e.classifier.Trained() {
				// Score against the classifier state the replay has evolved
				// so far — a deterministic index-ordered sequence. Scoring
				// reads weights only; it cannot perturb the update below.
				l.flipReplayed++
				if (l.e.classifier.Score(o.u) > 0) != o.failed {
					l.flipDisagree++
				}
			}
			l.e.classifier.Update(o.u, o.failed)
		}
		l.pending[idx] = l.pending[idx][:0]
	}
	l.trained = l.e.classifier.Trained()
}

// scorer returns worker w's dedicated scorer over the frozen classifier
// (the shared Classifier scratch buffer would race). Slot w is owned by one
// goroutine at a time, per the ParFor contract, and w is always below
// Opts.Parallelism, the worker count every ParFor is clamped to.
func (l *batchLabeler) scorer(w int) *svm.Scorer {
	sc := l.perW[w]
	if sc == nil {
		sc = l.e.classifier.NewScorer()
		l.perW[w] = sc
	}
	return sc
}

// score evaluates the frozen classifier at u through worker w's scorer.
func (l *batchLabeler) score(w int, u linalg.Vector) float64 {
	return l.scorer(w).Score(u)
}
