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

// BoundaryInitPar is the engine's boundary search. It keeps BoundaryInit's
// contract — a direction counts when its point at rmax fails, and each
// returned point fails within rtol of the boundary — but draws direction k
// from its own (seed, k) substream and locates each crossing by
// root-solving the signed margin along the ray instead of bisecting its
// sign. A point fails when its margin is < 0; zero and NaN count as passes.
//
// The ring probe at rmax carries one extra point, the origin, whose margin
// is the pass end of every bracket [0, rmax]. Each kept direction then runs
// Illinois regula falsi on its bracket (the step of sram's halfCell.solve)
// with a tolerance step: an estimate within rtol/2 of the endpoint that
// moved last is placed rtol/2 inside it, so a converged estimate closes the
// bracket with one more simulation. A step that is not strictly inside the
// bracket, or that meets a NaN margin, takes the midpoint, and a direction
// still open after as many steps as plain bisection would need bisects from
// then on, so no direction costs more than twice bisection. A direction
// stops once its bracket is at most rtol wide and returns d·hi: the point
// fails and lies within rtol of a passing point or of the origin.
//
// All directions march in lockstep: every step evaluates one point per
// still-open direction through a single marginBatch call — which the engine
// answers with its batched margin solver. Step decisions depend only on
// each direction's own margins, and the found points are kept in direction
// order, so the result depends only on seed, not on the worker count.
// marginBatch must write out[i] for pts[i]; it is always called
// single-threaded. The second result is the number of lockstep steps after
// the ring probe.
func BoundaryInitPar(seed int64, dim, directions int, rmax, rtol float64, marginBatch func(pts []linalg.Vector, out []float64), workers int) ([]linalg.Vector, int) {
	if rtol <= 0 {
		rtol = 0.05
	}
	workers = montecarlo.ClampWorkers(workers, directions)
	dirs := make([]linalg.Vector, directions)
	streams := randx.NewStreams(seed, workers)
	montecarlo.ParFor(workers, directions, func(w, k int) {
		dirs[k] = randx.SphereDirection(streams.At(w, uint64(k)), dim)
	})

	// Ring probe at rmax plus the origin: directions that pass at rmax have
	// no bracketed boundary and drop out.
	pts := make([]linalg.Vector, directions+1)
	ms := make([]float64, directions+1)
	for k, d := range dirs {
		pts[k] = d.Scale(rmax)
	}
	pts[directions] = linalg.NewVector(dim)
	marginBatch(pts, ms)
	m0 := ms[directions]
	brs := make([]bracket, directions)
	for k, m := range ms[:directions] {
		brs[k] = bracket{hi: rmax, flo: m0, fhi: m, found: m < 0}
	}

	// Lockstep root finding over the still-open directions.
	falsiSteps := int(math.Ceil(math.Log2(rmax / rtol)))
	open := make([]int, 0, directions)
	xs := make([]float64, directions)
	steps := 0
	for {
		open = open[:0]
		for k := range brs {
			if brs[k].found && brs[k].hi-brs[k].lo > rtol {
				open = append(open, k)
			}
		}
		if len(open) == 0 {
			break
		}
		for j, k := range open {
			xs[j] = brs[k].next(rtol, steps < falsiSteps)
			pts[j] = dirs[k].Scale(xs[j])
		}
		marginBatch(pts[:len(open)], ms[:len(open)])
		for j, k := range open {
			brs[k].update(xs[j], ms[j])
		}
		steps++
	}

	out := make([]linalg.Vector, 0, directions)
	for k, d := range dirs {
		if brs[k].found {
			out = append(out, d.Scale(brs[k].hi)) // just inside the failure region
		}
	}
	return out, steps
}

// bracket is one direction's root-finding state along its ray: radii lo
// (passes, or the origin) and hi (fails), their margins flo and fhi (the
// retained end halved by the Illinois rule), and which end moved last.
type bracket struct {
	lo, hi   float64
	flo, fhi float64
	side     int // +1: hi moved last, -1: lo moved last, 0: neither yet
	found    bool
}

// next returns the radius to evaluate: with falsi set, the regula falsi
// estimate, taken as a step from the end that moved last (from lo before
// either has) and lengthened to rtol/2 when shorter — the tolerance step,
// which also covers an estimate on that end (its margin is exactly 0);
// otherwise, or when the estimate is not strictly inside the bracket or a
// margin is NaN, the midpoint.
func (b *bracket) next(rtol float64, falsi bool) float64 {
	mid := 0.5 * (b.lo + b.hi)
	if !falsi {
		return mid
	}
	w := b.hi - b.lo
	from, dir, f0, f1 := b.lo, 1.0, b.flo, b.fhi
	if b.side > 0 {
		from, dir, f0, f1 = b.hi, -1.0, b.fhi, b.flo
	}
	d := f0 * w / (f0 - f1)
	if !(d >= 0 && d < w) {
		return mid
	}
	if b.side != 0 {
		d = max(d, rtol/2)
	}
	if x := from + dir*d; x > b.lo && x < b.hi {
		return x
	}
	return mid
}

// update moves the end that x replaces: hi when margin m fails, lo
// otherwise. Keeping the same end twice running halves the other end's
// margin (the Illinois rule), so a one-sided approach still converges
// superlinearly.
func (b *bracket) update(x, m float64) {
	if m < 0 {
		b.hi, b.fhi = x, m
		if b.side > 0 {
			b.flo *= 0.5
		}
		b.side = +1
		return
	}
	b.lo, b.flo = x, m
	if b.side < 0 {
		b.fhi *= 0.5
	}
	b.side = -1
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
