package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
	"ecripse/internal/stats"
)

// PipelinedValue is the per-sample evaluation contract of
// ImportanceSamplePar, split so a batch's expensive indicator evaluations
// settle together at the barrier and the next batch's classifier-free work
// overlaps that settlement:
//
//   - Generate(rng, k, x) is the classifier-independent half: it consumes
//     sample k's evaluation randomness from rng and stages the sample's raw
//     draws in slot k — but it must not read any state that a flush
//     barrier mutates. It runs concurrently with the previous batch's
//     Resolve/Value/Flush, so this restriction is load-bearing.
//   - Score(w, lo, hi) is the classifier-dependent half: it labels the
//     staged draws of samples [lo, hi) against state frozen at the last
//     flush barrier, classifying what it can and parking the rest for
//     Resolve. The driver hands out fixed chunks of scoreChunk (16)
//     samples of a batch, the last one possibly shorter, so one call can
//     score all of its draws together. w is the worker index (for
//     per-worker scratch); distinct chunks are scored concurrently, always
//     after the barrier that precedes their batch.
//   - Resolve(lo, hi) runs single-threaded at the barrier after every
//     sample of [lo, hi) has been scored; it settles the parked draws —
//     typically one batched indicator sweep — and banks the labels.
//   - Value(k, x) assembles sample k's value in [0, 1] from the banked
//     labels; it must be safe to call concurrently for distinct k.
//
// A batch's slots must survive one extra barrier window: the ring a
// PipelinedValue sizes has to span two batches, because batch k+1
// generates while batch k is still being read.
type PipelinedValue interface {
	Generate(rng *rand.Rand, k int, x linalg.Vector)
	Score(w, lo, hi int)
	Resolve(lo, hi int)
	Value(k int, x linalg.Vector) float64
}

// scoreChunk is the number of consecutive samples one PipelinedValue.Score
// call labels: the width of the classifier's batch kernel. It is a
// constant, never derived from the worker count, so that chunk membership
// cannot depend on scheduling.
const scoreChunk = 16

// PipelineStats accumulates the pipelined driver's overlap accounting. All
// fields are wall-clock (except Batches) and therefore observational only:
// they must never enter content-addressed results. Batches is a
// deterministic count of completed barrier windows.
type PipelineStats struct {
	Batches  int64 // barrier windows driven to completion
	GenNS    int64 // wall ns generating and staging next-batch draws
	StallNS  int64 // wall ns the barrier waited on an unfinished generation
	SettleNS int64 // wall ns settling deferred indicator work (Resolve)
}

// OverlapFraction is the share of generation wall-clock hidden behind
// barrier settlement: 1 − Stall/Gen, clamped to [0, 1]. Zero when no
// generation ran.
func (p PipelineStats) OverlapFraction() float64 {
	if p.GenNS <= 0 {
		return 0
	}
	f := 1 - float64(p.StallNS)/float64(p.GenNS)
	return math.Min(1, math.Max(0, f))
}

// StallFraction is the complementary view OverlapFraction hides: wall-clock
// the barrier spent waiting on generation, as a share of generation time.
// Zero when no generation ran; can exceed 1 on a badly starved pipeline.
// The health watchdog's pipeline_stall rule thresholds this number.
func (p PipelineStats) StallFraction() float64 {
	if p.GenNS <= 0 {
		return 0
	}
	return float64(p.StallNS) / float64(p.GenNS)
}

// add folds another tally in.
func (p *PipelineStats) add(o PipelineStats) {
	p.Batches += o.Batches
	p.GenNS += o.GenNS
	p.StallNS += o.StallNS
	p.SettleNS += o.SettleNS
}

// totalPipeline is the process-wide tally behind TotalPipelineStats, folded
// once per pipelined run (never per batch).
var totalPipeline struct {
	batches, gen, stall, settle atomic.Int64
}

// TotalPipelineStats reports the process-wide pipelined-execution totals
// since start — the figures the service's /metrics endpoint exposes.
func TotalPipelineStats() PipelineStats {
	return PipelineStats{
		Batches:  totalPipeline.batches.Load(),
		GenNS:    totalPipeline.gen.Load(),
		StallNS:  totalPipeline.stall.Load(),
		SettleNS: totalPipeline.settle.Load(),
	}
}

// recordPipelineTotals folds one run's tally into the process-wide counters.
func recordPipelineTotals(p PipelineStats) {
	totalPipeline.batches.Add(p.Batches)
	totalPipeline.gen.Add(p.GenNS)
	totalPipeline.stall.Add(p.StallNS)
	totalPipeline.settle.Add(p.SettleNS)
}

// TermStats summarizes the eq.-(19) terms an importance-sampling run
// folded: their sum and the largest one. Both come from the index-ordered
// fold, so they are identical at any worker count.
type TermStats struct {
	Max float64 // the largest term
	Sum float64 // the terms' sum, in index order
}

// MaxShare is the share of the terms' sum that the largest term carries: 1
// when one draw makes the whole estimate, about 1/hits when the positive
// terms are even. Zero when no term is positive.
func (t TermStats) MaxShare() float64 {
	if t.Sum <= 0 {
		return 0
	}
	return t.Max / t.Sum
}

// ImportanceSamplePar estimates E_P[value] with n draws from proposal q
// (paper eq. (19)) in barrier batches, double-buffered: while batch k's
// deferred indicator work settles (Resolve), its terms assemble and its
// classifier updates replay (Flush), the workers are already generating
// batch k+1's proposal draws and staging their evaluation points — a pure
// function of (Seed, sample index), which is why it may run before the
// barrier lands. Scoring of batch k+1 happens only after batch k's Flush,
// so every decision sees state frozen at its batch start. Sample k draws
// x_k and all evaluation randomness from substream (Seed, k), and terms
// fold in index order, so the estimate and the recorded series are
// bit-identical at any Workers setting.
//
// The importance weight exp(log φ(x) − log q(x)) is evaluated lazily on
// the settle side, only for samples whose value is positive: hoisting it
// into generation would evaluate the proposal log-density for every draw
// instead of the positive few, and that extra work costs more than the
// overlap hides on most workloads.
//
// Cancellation is checked at batch boundaries only: a fired context (or a
// Counter budget, which cancels via SetLimit) lets the in-flight batch
// complete and then returns the partial series — a deterministic stop,
// because batch membership does not depend on scheduling.
//
// Overlap accounting lands in po.PipeStats when set, and always in the
// process-wide TotalPipelineStats totals. The returned TermStats cover the
// terms folded into the series, partial runs included.
func ImportanceSamplePar(ctx context.Context, q Proposal, pv PipelinedValue, n int, po ParOptions, c *Counter, recordEvery int) (stats.Series, TermStats) {
	if recordEvery <= 0 {
		recordEvery = n/50 + 1
	}
	batch := po.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	workers := po.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Double buffers: batch k reads parity k%2 while batch k+1 generates
	// into the other. terms is only touched between Resolve and the fold,
	// never by the generator, so one buffer suffices.
	var xs [2][]linalg.Vector
	for p := range xs {
		xs[p] = make([]linalg.Vector, batch)
	}
	terms := make([]float64, batch)
	// The stream pool is touched only by generation passes, which never
	// overlap each other (each is awaited before the next launches) — the
	// settlement half of the pipeline draws no randomness.
	streams := randx.NewStreams(po.Seed, workers)

	gen := func(p, lo, hi int) {
		ParFor(workers, hi-lo, func(w, i int) {
			k := lo + i
			rng := streams.At(w, uint64(k))
			x := q.Sample(rng)
			xs[p][i] = x
			pv.Generate(rng, k, x)
		})
	}
	score := func(lo, hi int) {
		ParFor(workers, (hi-lo+scoreChunk-1)/scoreChunk, func(w, ci int) {
			clo := lo + ci*scoreChunk
			pv.Score(w, clo, min(clo+scoreChunk, hi))
		})
	}

	var ps PipelineStats
	defer func() {
		if po.PipeStats != nil {
			po.PipeStats.add(ps)
		}
		recordPipelineTotals(ps)
	}()

	// In-flight generation of the next batch: genDone is non-nil while one
	// runs; genDur is written by the goroutine before the close, so the
	// channel receive orders the read.
	var genDone chan struct{}
	var genDur time.Duration
	launch := func(p, lo, hi int) {
		done := make(chan struct{})
		genDone = done
		go func() {
			t0 := time.Now()
			gen(p, lo, hi)
			genDur = time.Since(t0)
			close(done)
		}()
	}
	waitGen := func() {
		if genDone == nil {
			return
		}
		t0 := time.Now()
		<-genDone
		genDone = nil
		ps.StallNS += int64(time.Since(t0))
		ps.GenNS += int64(genDur)
	}

	var run stats.Running
	var series stats.Series
	var ts TermStats
	recorded := 0

	// Prologue: batch 0 has nothing to hide behind — generate and score it
	// in line.
	if n > 0 {
		hi0 := batch
		if hi0 > n {
			hi0 = n
		}
		t0 := time.Now()
		gen(0, 0, hi0)
		ps.GenNS += int64(time.Since(t0))
		score(0, hi0)
	}

	for lo := 0; lo < n; lo += batch {
		if ctx.Err() != nil {
			waitGen()
			return finishSeries(series, &run, c), ts
		}
		p := (lo / batch) % 2
		hi := lo + batch
		if hi > n {
			hi = n
		}
		// Overlap: batch k+1's draws and log-densities generate while batch
		// k settles below.
		if hi < n {
			nhi := hi + batch
			if nhi > n {
				nhi = n
			}
			launch(1-p, hi, nhi)
		}
		t0 := time.Now()
		pv.Resolve(lo, hi)
		ps.SettleNS += int64(time.Since(t0))
		ParFor(workers, hi-lo, func(w, i int) {
			v := pv.Value(lo+i, xs[p][i])
			term := 0.0
			if v > 0 {
				logW := randx.StdNormalLogPDF(xs[p][i]) - q.LogPDF(xs[p][i])
				term = v * math.Exp(logW)
			}
			terms[i] = term
		})
		if po.Flush != nil {
			po.Flush(lo, hi)
		}
		// Merge strictly in index order: Welford folding is floating-point
		// order-sensitive, so this is part of the determinism contract.
		for _, term := range terms[:hi-lo] {
			run.Add(term)
			ts.Sum += term
			if term > ts.Max {
				ts.Max = term
			}
		}
		// The simulation-count coordinate is exact here: every simulation
		// of samples < hi has settled, and generation of the next batch
		// simulates nothing.
		pt := stats.Point{
			Sims: c.Count(), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
		}
		if po.OnBatch != nil {
			po.OnBatch(hi, pt)
		}
		if hi/recordEvery > recorded/recordEvery || hi == n {
			series = append(series, pt)
		}
		recorded = hi
		ps.Batches++
		// Barrier: batch k+1 may not score before this batch's classifier
		// replay (Flush above) has landed.
		waitGen()
		if hi < n {
			nhi := hi + batch
			if nhi > n {
				nhi = n
			}
			score(hi, nhi)
		}
	}
	return series, ts
}
