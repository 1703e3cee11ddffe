package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
	"ecripse/internal/stats"
)

// pipelinedRule implements PipelinedValue over a simple rare-event rule:
// Generate stages one uniform from the sample substream (the
// classifier-free half), Score marks its chunk's samples scored (the rule
// has no frozen-state decisions), Resolve bills one simulation per sample to c
// when set, and the value is 1 when the draw lands inside a ball around a
// shifted center. The ring spans two batches, as the contract requires.
type pipelinedRule struct {
	c      *Counter
	us     []float64
	scored []bool
}

func newPipelinedRule(ring int, c *Counter) *pipelinedRule {
	return &pipelinedRule{c: c, us: make([]float64, ring), scored: make([]bool, ring)}
}

func (s *pipelinedRule) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	s.us[k%len(s.us)] = rng.Float64()
	s.scored[k%len(s.us)] = false
}

func (s *pipelinedRule) Score(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.scored[k%len(s.us)] = true
	}
}

func (s *pipelinedRule) Resolve(lo, hi int) {
	for k := lo; k < hi; k++ {
		if !s.scored[k%len(s.us)] {
			panic("resolve before score")
		}
	}
	if s.c != nil {
		s.c.Add(int64(hi - lo))
	}
}

func (s *pipelinedRule) Value(k int, x linalg.Vector) float64 {
	return ruleValue(s.us[k%len(s.us)], x)
}

func ruleValue(u float64, x linalg.Vector) float64 {
	d := 0.0
	for _, v := range x {
		d += (v - 2) * (v - 2)
	}
	if d < 4+u {
		return 1
	}
	return 0
}

var _ PipelinedValue = (*pipelinedRule)(nil)

// serialRuleIS is the reference the pipelined driver is pinned against:
// the importance-sampling estimate of pipelinedRule's value written as one
// plain loop, sample k drawing x_k and its uniform from substream (seed, k),
// one simulation per sample, recorded at the batch boundaries, with the
// terms' sum and largest term.
func serialRuleIS(q Proposal, n, batch, recordEvery int, seed int64) (stats.Series, TermStats) {
	var run stats.Running
	var series stats.Series
	var ts TermStats
	recorded := 0
	for k := 0; k < n; k++ {
		rng := randx.Stream(seed, uint64(k))
		x := q.Sample(rng)
		term := 0.0
		if v := ruleValue(rng.Float64(), x); v > 0 {
			term = v * math.Exp(randx.StdNormalLogPDF(x)-q.LogPDF(x))
		}
		run.Add(term)
		ts.Sum += term
		if term > ts.Max {
			ts.Max = term
		}
		hi := k + 1
		if hi%batch != 0 && hi != n {
			continue
		}
		if hi/recordEvery > recorded/recordEvery || hi == n {
			series = append(series, stats.Point{
				Sims: int64(hi), P: run.Mean(), CI95: run.CI95(), RelErr: run.RelErr(), Var: run.Var(),
			})
		}
		recorded = hi
	}
	return series, ts
}

// TestImportanceSampleParPipelinedMatchesScalar pins the double-buffered
// driver to the serial per-sample loop: same series and term statistics
// bit for bit, at lengths that exercise partial final batches and at
// several worker counts, with one pipelined window per batch.
func TestImportanceSampleParPipelinedMatchesScalar(t *testing.T) {
	dim := 4
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1.5)}
	for _, n := range []int{100, 256, 700} {
		want, wantTerms := serialRuleIS(q, n, 128, 64, 5)
		if want.Final().P <= 0 || wantTerms.MaxShare() <= 0 || wantTerms.MaxShare() > 1 {
			t.Fatalf("n=%d: degenerate reference series %v, terms %+v", n, want, wantTerms)
		}
		for _, workers := range []int{1, 3} {
			var c Counter
			var ps PipelineStats
			got, terms := ImportanceSamplePar(context.Background(), q, newPipelinedRule(256, &c),
				n, ParOptions{Seed: 5, Workers: workers, Batch: 128, PipeStats: &ps}, &c, 64)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: pipelined series diverged\npipelined %v\nserial    %v", n, workers, got, want)
			}
			if terms != wantTerms {
				t.Fatalf("n=%d workers=%d: term statistics %+v, serial %+v", n, workers, terms, wantTerms)
			}
			wantBatches := int64((n + 127) / 128)
			if ps.Batches != wantBatches {
				t.Fatalf("n=%d: %d pipelined batches, want %d", n, ps.Batches, wantBatches)
			}
			if ps.GenNS <= 0 {
				t.Fatalf("n=%d: no generation time recorded", n)
			}
		}
	}
}

// TestImportanceSampleParPipelinedWorkerInvariance: with a GMM proposal at
// the default barrier size (a partial final batch included), the series is
// bit-identical across worker counts.
func TestImportanceSampleParPipelinedWorkerInvariance(t *testing.T) {
	dim := 3
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1.2)}
	run := func(workers int) stats.Series {
		var c Counter
		series, _ := ImportanceSamplePar(context.Background(), q, newPipelinedRule(2*DefaultBatch, &c),
			1000, ParOptions{Seed: 11, Workers: workers}, &c, 100)
		return series
	}
	want := run(1)
	if want.Final().P <= 0 || want.Final().Sims != 1000 {
		t.Fatalf("degenerate baseline series: %+v", want)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: series diverged from serial run", workers)
		}
	}
}

// TestPipelinedCancellation checks that a cancelled run awaits its
// in-flight generation — the look-ahead batch is complete when the driver
// returns — and returns a partial series.
func TestPipelinedCancellation(t *testing.T) {
	dim := 2
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	var gens, vals atomic.Int32
	pv := &hookedRule{pipelinedRule: newPipelinedRule(2*DefaultBatch, nil),
		onGenerate: func() {
			if gens.Add(1) == 300 {
				cancel()
			}
		},
		onValue: func() { vals.Add(1) },
	}
	var c Counter
	series, _ := ImportanceSamplePar(ctx, q, pv, 10000, ParOptions{Seed: 3, Workers: 1}, &c, 0)
	if len(series) == 0 {
		t.Fatalf("cancelled run lost its partial series")
	}
	if fin := series.Final(); fin.P < 0 || math.IsNaN(fin.P) {
		t.Fatalf("bad final point %v", fin)
	}
	if gens.Load() >= 10000 {
		t.Fatalf("cancellation did not stop the run")
	}
	if g, v := gens.Load(), vals.Load(); g != v+DefaultBatch {
		t.Fatalf("returned with %d samples generated and %d valued; want the look-ahead batch of %d complete", g, v, DefaultBatch)
	}
}

// TestPipelineStatsOverlapFraction checks the derived overlap share and its
// clamping.
func TestPipelineStatsOverlapFraction(t *testing.T) {
	cases := []struct {
		ps   PipelineStats
		want float64
	}{
		{PipelineStats{}, 0},
		{PipelineStats{GenNS: 100, StallNS: 25}, 0.75},
		{PipelineStats{GenNS: 100, StallNS: 0}, 1},
		{PipelineStats{GenNS: 100, StallNS: 250}, 0}, // stall beyond gen clamps
	}
	for _, tc := range cases {
		if got := tc.ps.OverlapFraction(); got != tc.want {
			t.Fatalf("OverlapFraction(%+v) = %v, want %v", tc.ps, got, tc.want)
		}
	}
}

// TestTotalPipelineStats checks that runs fold into the process-wide tally.
func TestTotalPipelineStats(t *testing.T) {
	before := TotalPipelineStats()
	dim := 2
	q := &GMM{Means: []linalg.Vector{linalg.NewVector(dim)}, Sigma: uniformSigma(dim, 1)}
	var c Counter
	ImportanceSamplePar(context.Background(), q, newPipelinedRule(512, nil), 600, ParOptions{Seed: 9, Workers: 2}, &c, 0)
	after := TotalPipelineStats()
	if after.Batches-before.Batches != 3 {
		t.Fatalf("global batch count advanced by %d, want 3", after.Batches-before.Batches)
	}
	if after.GenNS <= before.GenNS {
		t.Fatalf("global generation time did not advance")
	}
}
