package pfilter

import (
	"math"
	"math/rand"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/randx"
)

// StagedValue is the measurement contract of a StepPar round: the
// per-candidate evaluation is split so the expensive indicator evaluations
// of the whole round settle together, marched through the lockstep SRAM
// solver, instead of one latency chain at a time.
//
//   - Prepare(w, rng, idx, x) runs in parallel, one call per candidate, on
//     worker w (for per-worker scratch): it consumes the candidate's
//     evaluation randomness from rng, decides which draws it can answer
//     from frozen adaptive state, and parks the rest in slot idx.
//   - Resolve(lo, hi) runs single-threaded once every candidate of
//     [lo, hi) has been prepared; it settles the parked draws — typically
//     one batched indicator sweep — and banks the labels.
//   - Value(idx, x) assembles the candidate's weight from the banked
//     labels; it must be safe to call concurrently for distinct idx.
//
// Within a round every decision sees adaptive state frozen at the round
// start; any state mutation is the caller's to replay in index order at
// its flush barrier.
type StagedValue interface {
	Prepare(w int, rng *rand.Rand, idx int, x linalg.Vector)
	Resolve(lo, hi int)
	Value(idx int, x linalg.Vector) float64
}

// BoundaryInitPar is BoundaryInit with the directions drawn in parallel and
// the indicator calls gathered into lockstep batches: direction k draws from
// its own (seed, k) substream, all directions march their bisections in
// step, and every step labels one point per still-bisecting direction
// through a single failsBatch call — which the engine answers with its
// batched margin solver. Bisection decisions depend only on each
// direction's own labels, and the found boundary points are kept in
// direction order, so the result depends only on seed, not on the worker
// count. failsBatch must write out[i] for pts[i]; it is always called
// single-threaded.
func BoundaryInitPar(seed int64, dim, directions int, rmax, rtol float64, failsBatch func(pts []linalg.Vector, out []bool), workers int) []linalg.Vector {
	if rtol <= 0 {
		rtol = 0.05
	}
	workers = montecarlo.ClampWorkers(workers, directions)
	dirs := make([]linalg.Vector, directions)
	streams := randx.NewStreams(seed, workers)
	montecarlo.ParFor(workers, directions, func(w, k int) {
		dirs[k] = randx.SphereDirection(streams.At(w, uint64(k)), dim)
	})

	// Ring probe at rmax: directions that pass there have no bracketed
	// boundary and drop out.
	pts := make([]linalg.Vector, directions)
	outs := make([]bool, directions)
	for k, d := range dirs {
		pts[k] = d.Scale(rmax)
	}
	failsBatch(pts, outs)
	lo := make([]float64, directions)
	hi := make([]float64, directions)
	failed := make([]bool, directions)
	for k, f := range outs {
		failed[k] = f
		hi[k] = rmax
	}

	// Lockstep bisection. The interval halves identically everywhere, but
	// the loop keeps a per-direction width test anyway so floating-point
	// drift between directions can never change a direction's own
	// stopping point.
	stage := make([]int, 0, directions)
	for {
		stage = stage[:0]
		for k := range dirs {
			if failed[k] && hi[k]-lo[k] > rtol {
				stage = append(stage, k)
			}
		}
		if len(stage) == 0 {
			break
		}
		for j, k := range stage {
			pts[j] = dirs[k].Scale(0.5 * (lo[k] + hi[k]))
		}
		failsBatch(pts[:len(stage)], outs[:len(stage)])
		for j, k := range stage {
			mid := 0.5 * (lo[k] + hi[k])
			if outs[j] {
				hi[k] = mid
			} else {
				lo[k] = mid
			}
		}
	}

	out := make([]linalg.Vector, 0, directions)
	for k, d := range dirs {
		if failed[k] {
			out = append(out, d.Scale(hi[k])) // just inside the failure region
		}
	}
	return out
}

// StepPar advances every filter one prediction/measurement/resampling round
// with the measurement step parallelized across workers goroutines. Each
// candidate carries a global index (filter-major order across the whole
// ensemble); its prediction draw and the label decisions of sv.Prepare come
// from substream (seed, index), the deferred indicator evaluations of the
// whole round settle in one sv.Resolve barrier, and the weights (eq. (16))
// assemble from the banked labels into index slots — so one round is
// bit-identical for any worker count. After the measurement barrier, flush
// (if non-nil) is called with the number of candidates scored, letting the
// caller apply deferred classifier updates in index order; resampling then
// consumes substreams at indices ≥ that count, one per filter.
//
// Within a round, every label decision sees the caller's adaptive state
// frozen at the round start — the round is one batch.
func (e *Ensemble) StepPar(seed int64, sv StagedValue, flush func(scored int), workers int) []StepRecord {
	offs := make([]int, len(e.filters)+1)
	for fi, f := range e.filters {
		offs[fi+1] = offs[fi] + len(f)
	}
	total := offs[len(e.filters)]
	workers = montecarlo.ClampWorkers(workers, total)

	cands := make([]linalg.Vector, total)
	ws := make([]float64, total)
	streams := randx.NewStreams(seed, workers)
	montecarlo.ParFor(workers, total, func(w, idx int) {
		fi := 0
		for offs[fi+1] <= idx {
			fi++
		}
		particles := e.filters[fi]
		rng := streams.At(w, uint64(idx))
		// Prediction (eq. (15)): mixture kernel centred on a random current
		// particle of this candidate's filter.
		base := particles[rng.Intn(len(particles))]
		x := make(linalg.Vector, len(base))
		for d := range x {
			x[d] = base[d] + e.opts.KernelStd*rng.NormFloat64()
		}
		cands[idx] = x
		sv.Prepare(w, rng, idx, x)
	})
	sv.Resolve(0, total)
	montecarlo.ParFor(workers, total, func(w, idx int) {
		ws[idx] = sv.Value(idx, cands[idx])
	})
	if flush != nil {
		flush(total)
	}
	return e.resampleTail(seed, offs, cands, ws)
}

// resampleTail is the post-measurement half of a StepPar round: per-filter
// systematic resampling from the scored candidates, record assembly, and
// pooling of the positively-weighted candidates. Deterministic given
// (seed, offs, cands, ws).
func (e *Ensemble) resampleTail(seed int64, offs []int, cands []linalg.Vector, ws []float64) []StepRecord {
	total := offs[len(e.filters)]
	records := make([]StepRecord, len(e.filters))
	for fi := range e.filters {
		lo, hi := offs[fi], offs[fi+1]
		fc, fw := cands[lo:hi:hi], ws[lo:hi:hi]
		n := hi - lo
		sum := 0.0
		for _, w := range fw {
			if w > 0 {
				sum += w
			}
		}
		var next []linalg.Vector
		unique := 0
		if sum <= 0 || math.IsNaN(sum) {
			next = e.filters[fi] // degenerate round: keep previous cloud
			sum = 0
		} else {
			idx := randx.SystematicResample(randx.Stream(seed, uint64(total+fi)), fw, n)
			next = make([]linalg.Vector, n)
			for i, j := range idx {
				next[i] = fc[j]
			}
			unique = e.uniqueSources(idx)
		}
		records[fi] = StepRecord{Candidates: fc, Weights: fw, Resampled: next, Unique: unique, WeightSum: sum}
		e.filters[fi] = next
		// Pool positively-weighted candidates in index order, matching Step.
		for i, w := range fw {
			if w > 0 {
				e.poolX = append(e.poolX, fc[i])
				e.poolW = append(e.poolW, w)
			}
		}
	}
	return records
}
