package core

import (
	"math/rand"
	"sync/atomic"
	"time"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/randx"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// batchScratch is the engine's reusable per-barrier buffer set.
// simulateMargins and marginBatch run single-threaded per engine (only
// their interior margin work fans out, into disjoint sub-slices), so one
// scratch instance per engine makes the steady-state barrier
// allocation-free.
type batchScratch struct {
	shs     []sram.Shifts
	margins []float64
	res     []sram.SNMResult
	tallies []solverTally
}

// solverTally is a per-worker solver-telemetry accumulator, padded so that
// neighbouring workers' counters never share a cache line. The lockstep
// margin chunks bill their root-solve/iteration/lane counters here and the
// barrier merges the tallies once, instead of every worker hammering the
// engine's shared telemetry atomics mid-sweep.
type solverTally struct {
	t sram.SolveTelemetry
	_ [32]byte
}

// shiftsInto fills shs[i] for every us[i] (see shifts).
func (e *Engine) shiftsInto(us []linalg.Vector, shs []sram.Shifts) {
	for i, u := range us {
		shs[i] = e.shifts(u)
	}
}

// growShifts returns a length-n shift buffer backed by buf when it fits.
func growShifts(buf []sram.Shifts, n int) []sram.Shifts {
	if cap(buf) < n {
		return make([]sram.Shifts, n)
	}
	return buf[:n]
}

// growFloats returns a length-n float buffer backed by buf when it fits.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// simulateMargins evaluates the mode's signed margin [V] at a *total*
// normalized shift vector (RDF + RTN combined, in units of the RDF sigma)
// for every point of us in bulk, writing out[i] for us[i]. It is the
// engine's one simulate path: one call bills len(us) transistor-level
// simulations, and the margins march through the lockstep SRAM solver
// instead of one root-solve latency chain per sample, each bit-identical to
// the scalar solver's margin on the same point. Called at batch barriers
// (single-threaded per engine); the margin work inside fans out across
// Opts.Parallelism workers in lane-width chunks. All working buffers come
// from the engine scratch, so a steady-state barrier allocates nothing.
// When Opts.IndicatorHist is set the sweep is timed into it; the timing
// never feeds back into the result.
func (e *Engine) simulateMargins(us []linalg.Vector, out []float64) {
	n := len(us)
	if n == 0 {
		return
	}
	h := e.Opts.IndicatorHist
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	e.Counter.Add(int64(n))
	sc := &e.scratch
	sc.shs = growShifts(sc.shs, n)
	e.shiftsInto(us, sc.shs)
	e.marginBatch(sc.shs, out)
	if h != nil {
		// One observation per simulation, each billed the batch mean, so the
		// histogram's count keeps meaning "simulations".
		h.ObserveN(time.Since(t0).Seconds()/float64(n), int64(n))
	}
}

// simulateBatch evaluates the true indicator — margin < 0 — at every point
// of us, writing out[i] for us[i] (see simulateMargins).
func (e *Engine) simulateBatch(us []linalg.Vector, out []bool) {
	sc := &e.scratch
	sc.margins = growFloats(sc.margins, len(us))
	e.simulateMargins(us, sc.margins)
	for i, m := range sc.margins {
		out[i] = m < 0
	}
}

// marginBatch evaluates the mode's signed margin [V] for every shift vector
// (read/hold: Seevinck SNM, write: static write margin; every failure
// criterion is margin < 0), chunked to the lockstep lane width; chunks
// spread across the engine's workers. Solver telemetry accumulates in
// padded per-worker tallies and merges into the engine's telemetry once
// after the fan-out, so concurrent chunks never contend on the shared
// counters.
func (e *Engine) marginBatch(shs []sram.Shifts, out []float64) {
	if e.Opts.Mode == WriteFailure {
		// The one exception to the lockstep solver: there is no batched
		// write-margin solver, so write mode runs the scalar solve inside
		// the barrier, parallel across samples.
		montecarlo.ParFor(montecarlo.ClampWorkers(e.Opts.Parallelism, len(shs)), len(shs), func(w, i int) {
			out[i] = e.Cell.WriteMargin(shs[i], e.snmOpts)
		})
		return
	}
	o := *e.snmOpts
	if e.Opts.Mode == HoldFailure {
		o.Hold = true
	}
	// Chunking is a pure function of (len, lanes) — never of the worker
	// count — so the lane-slot accounting (part of cached results) stays
	// parallelism-independent.
	const lanes = sram.DefaultBatchLanes
	chunks := (len(shs) + lanes - 1) / lanes
	workers := montecarlo.ClampWorkers(e.Opts.Parallelism, chunks)
	sc := &e.scratch
	if cap(sc.res) < len(shs) {
		sc.res = make([]sram.SNMResult, len(shs))
	}
	res := sc.res[:len(shs)]
	if len(sc.tallies) < workers {
		sc.tallies = make([]solverTally, workers)
	}
	tallies := sc.tallies
	montecarlo.ParFor(workers, chunks, func(w, ci int) {
		lo := ci * lanes
		hi := lo + lanes
		if hi > len(shs) {
			hi = len(shs)
		}
		co := o
		co.Telemetry = &tallies[w].t
		e.Cell.NoiseMarginBatch(shs[lo:hi], res[lo:hi], &co)
		for i := lo; i < hi; i++ {
			out[i] = res[i].SNM()
		}
	})
	for w := 0; w < workers; w++ {
		e.solver.Merge(&tallies[w].t)
		tallies[w].t.Reset()
	}
}

// stagedEval adapts the engine's labeling rules to the batch-barrier
// contracts of the two sampling loops: the stage-1 rule to
// pfilter.StagedValue (one Prepare per particle candidate, one Resolve per
// round) and the stage-2 rule to montecarlo.PipelinedValue, whose
// Generate/Score split cuts the per-sample work at the classifier boundary:
// Generate stages the raw draws (randomness only, no classifier reads, safe
// to overlap with a settling barrier) and Score applies the frozen-
// classifier decisions afterwards. Decisions depend only on the point and
// on classifier state frozen at the barrier, never on pending simulation
// results — draws the classifier answers are labeled immediately and the
// rest are parked. Resolve settles every parked draw of the window through
// one simulateBatch sweep and records the observations for the classifier
// replay at the caller's flush barrier, preserving per-index draw order.
type stagedEval struct {
	e       *Engine
	lab     *batchLabeler
	sampler *rtn.Sampler
	m       int
	stage1  bool // the stage-1 rule (Prepare); otherwise stage 2 (Generate/Score)

	slots  []stagedSlot   // barrier window ring, indexed k mod len
	chunks []chunkScratch // per-worker stage-2 scoring buffers
	pts    []linalg.Vector
	outs   []bool
}

// chunkScratch is one worker's buffers for scoring a stage-2 chunk: the
// chunk's in-trust-region draws in draw order, their scores, and which of
// the chunk's draws they are.
type chunkScratch struct {
	pts     []linalg.Vector
	scores  []float64
	trusted []bool
}

// stagedSlot is one sample's in-window state.
type stagedSlot struct {
	fails      int             // failures among classifier-decided draws, then all draws
	classified int             // draws answered by the classifier (folded at Resolve)
	draws      []linalg.Vector // staged RTN draws awaiting Score (stage 2)
	deferred   []linalg.Vector // draws parked for the batched indicator
}

// newStagedEval sizes the ring for the widest barrier window the caller
// will resolve: a whole stage-1 round, or twice the stage-2 batch size,
// because batch k+1 generates into the ring while batch k is still being
// read.
func newStagedEval(e *Engine, lab *batchLabeler, sampler *rtn.Sampler, m int, stage1 bool, window int) *stagedEval {
	return &stagedEval{e: e, lab: lab, sampler: sampler, m: m, stage1: stage1,
		slots: make([]stagedSlot, window), chunks: make([]chunkScratch, e.Opts.Parallelism)}
}

// draw computes inner draw d of a sample: the RDF point x plus one RTN
// shift from rng, in the normalized space.
func (s *stagedEval) draw(rng *rand.Rand, x linalg.Vector) linalg.Vector {
	u := x.Clone()
	if s.sampler != nil {
		sh := s.sampler.Sample(rng)
		if s.e.whiten != nil {
			// In the whitened space the additive physical shift maps
			// through L⁻¹ (zero-mean Whiten).
			u.AddInPlace(s.e.whiten.Whiten(sh.Vector()))
		} else {
			for i := range u {
				u[i] += sh[i] / s.e.sigma[i]
			}
		}
	}
	return u
}

// Prepare implements pfilter.StagedValue with the stage-1 rule: each of
// the m inner draws takes one RTN shift from rng; with a trained classifier
// a uniform from rng then sends a TrainFrac share of the draws to the
// simulator (parked for replay) and classifies the rest against the frozen
// weights through worker w's scorer.
func (s *stagedEval) Prepare(w int, rng *rand.Rand, k int, x linalg.Vector) {
	sl := &s.slots[k%len(s.slots)]
	sl.fails = 0
	sl.classified = 0
	sl.deferred = sl.deferred[:0]
	e := s.e
	for d := 0; d < s.m; d++ {
		u := s.draw(rng, x)
		if e.classifierOff() || !s.lab.trained || rng.Float64() < e.Opts.TrainFrac {
			sl.deferred = append(sl.deferred, u)
			continue
		}
		sl.classified++
		if s.lab.score(w, u) > 0 {
			sl.fails++
		}
	}
}

// Generate implements montecarlo.PipelinedValue: the classifier-free half
// of the stage-2 rule. The rule draws no uniforms, so its whole randomness
// is the m RTN draws, which Generate stages in the slot for Score. It reads
// no classifier or labeler state, which is what lets it overlap the
// previous batch's settlement. Stage 1 has no such split (its train-
// fraction uniform is interleaved with classifier state), so the stage-1
// rule runs through Prepare only.
func (s *stagedEval) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	if s.stage1 {
		panic("core: stage-1 rule cannot generate ahead of the barrier")
	}
	sl := &s.slots[k%len(s.slots)]
	sl.fails = 0
	sl.classified = 0
	sl.deferred = sl.deferred[:0]
	sl.draws = sl.draws[:0]
	for d := 0; d < s.m; d++ {
		sl.draws = append(sl.draws, s.draw(rng, x))
	}
}

// Score implements montecarlo.PipelinedValue: the frozen-classifier half of
// the stage-2 rule for samples [lo, hi), run after the previous batch's
// flush barrier. The chunk's in-trust-region draws are scored together, in
// draw order, through worker w's scorer; then each draw, in order, is
// classified for free when its score is confident, or parked for the
// simulator when it lies in the uncertain band, outside the trust region,
// or under the NoClassifier ablation. One score decides both the band
// test and the prediction.
func (s *stagedEval) Score(w, lo, hi int) {
	e := s.e
	scoring := !e.classifierOff() && s.lab.trained
	cs := &s.chunks[w]
	cs.pts, cs.trusted = cs.pts[:0], cs.trusted[:0]
	if scoring {
		for k := lo; k < hi; k++ {
			for _, u := range s.slots[k%len(s.slots)].draws {
				in := e.trustR <= 0 || u.Norm() <= e.trustR
				cs.trusted = append(cs.trusted, in)
				if in {
					cs.pts = append(cs.pts, u)
				}
			}
		}
		cs.scores = growFloats(cs.scores, len(cs.pts))
		s.lab.scorer(w).ScoreBatch(cs.pts, cs.scores)
	}
	d, j := 0, 0 // the chunk's draw index and in-trust-region draw index
	for k := lo; k < hi; k++ {
		sl := &s.slots[k%len(s.slots)]
		for _, u := range sl.draws {
			trusted := scoring && cs.trusted[d]
			d++
			if trusted {
				sc := cs.scores[j]
				j++
				if sc <= -e.Opts.Band || sc >= e.Opts.Band {
					sl.classified++
					if sc > 0 {
						sl.fails++
					}
					continue
				}
			}
			sl.deferred = append(sl.deferred, u)
		}
	}
}

// Resolve implements both contracts: one batched indicator sweep
// over every draw parked in [lo, hi), with the labels banked per slot and
// the observations recorded for the flush-barrier classifier replay. The
// slots' classified tallies fold into the engine counter here — one atomic
// add per barrier instead of one per classified draw.
func (s *stagedEval) Resolve(lo, hi int) {
	s.pts = s.pts[:0]
	classified := 0
	for k := lo; k < hi; k++ {
		sl := &s.slots[k%len(s.slots)]
		classified += sl.classified
		sl.classified = 0
		s.pts = append(s.pts, sl.deferred...)
	}
	if classified > 0 {
		atomic.AddInt64(&s.e.classified, int64(classified))
	}
	if len(s.pts) == 0 {
		return
	}
	if cap(s.outs) < len(s.pts) {
		s.outs = make([]bool, len(s.pts))
	}
	s.outs = s.outs[:len(s.pts)]
	s.e.simulateBatch(s.pts, s.outs)
	i := 0
	for k := lo; k < hi; k++ {
		sl := &s.slots[k%len(s.slots)]
		for _, u := range sl.deferred {
			failed := s.outs[i]
			i++
			if failed {
				sl.fails++
			}
			s.lab.record(k, u, failed)
		}
	}
}

// Value implements both contracts: sample k's conditional failure value
// Pfail_RTN(x) (eq. (17), the failed share of its m draws) — and, on the
// stage-1 rule, the particle weight v·P(x) of eq. (16). Safe for
// concurrent calls on distinct k (slot reads only).
func (s *stagedEval) Value(k int, x linalg.Vector) float64 {
	sl := &s.slots[k%len(s.slots)]
	v := float64(sl.fails) / float64(s.m)
	if !s.stage1 {
		return v
	}
	if v <= 0 {
		return 0
	}
	return v * randx.StdNormalPDF(x)
}
