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

// TestParForCoversAllIndices: every index runs exactly once, for worker
// counts spanning inline, clamped and oversubscribed cases.
func TestParForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 93
		var hits [n]int32
		ParFor(workers, n, func(w, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	ParFor(4, 0, func(w, i int) { t.Fatal("fn called for n=0") })
}

// TestParForSlotDeterminism: a function that writes substream-derived data
// into its own slot produces identical output at any worker count.
func TestParForSlotDeterminism(t *testing.T) {
	run := func(workers int) []float64 {
		const n = 500
		out := make([]float64, n)
		streams := randx.NewStreams(3, ClampWorkers(workers, n))
		ParFor(workers, n, func(w, i int) {
			out[i] = streams.At(w, uint64(i)).NormFloat64()
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("ParFor output differs at workers=%d", workers)
		}
	}
}

// gaussianBump is a minimal deterministic proposal for sampler tests.
type gaussianBump struct{ dim int }

func (g gaussianBump) Sample(rng *rand.Rand) linalg.Vector {
	x := make(linalg.Vector, g.dim)
	for i := range x {
		x[i] = 2 + rng.NormFloat64()
	}
	return x
}

func (g gaussianBump) LogPDF(x linalg.Vector) float64 {
	q := 0.0
	for _, v := range x {
		q += (v - 2) * (v - 2)
	}
	return -0.5*q - 0.5*float64(g.dim)*randx.Log2Pi
}

// TestImportanceSampleParWorkerInvariance: series and estimate
// bit-identical across worker counts, including the recorded points and
// their simulation-count coordinates.
func TestImportanceSampleParWorkerInvariance(t *testing.T) {
	run := func(workers int) stats.Series {
		var c Counter
		pv := newPipelinedRule(256, &c)
		series, _ := ImportanceSamplePar(context.Background(), gaussianBump{dim: 4}, pv, 3000,
			ParOptions{Seed: 11, Workers: workers, Batch: 128}, &c, 500)
		return series
	}
	want := run(1)
	if len(want) == 0 || want.Final().P <= 0 {
		t.Fatalf("degenerate baseline series: %+v", want)
	}
	for _, workers := range []int{2, 5, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("series differs at workers=%d:\n got  %+v\n want %+v", workers, got, want)
		}
	}
}

// barrierProbe is a PipelinedValue that checks the driver's barrier order
// from inside the callbacks: a sample scores exactly once, in a chunk of
// scoreChunk samples aligned to its batch start (the batch's last chunk
// may be shorter), only after it generated and after the previous batch's
// Flush returned; every Score of a batch precedes its Resolve, and every
// Value of a range precedes its Flush.
type barrierProbe struct {
	t         *testing.T
	batch     int
	generated []atomic.Bool
	scored    []atomic.Bool
	valued    []atomic.Bool
	flushed   atomic.Int64    // hi of the last Flush that returned
	genLeft   []atomic.Int32  // per batch: samples still to generate
	genDone   []chan struct{} // per batch: closed once it has fully generated
}

func newBarrierProbe(t *testing.T, n, batch int) *barrierProbe {
	p := &barrierProbe{t: t, batch: batch,
		generated: make([]atomic.Bool, n), scored: make([]atomic.Bool, n), valued: make([]atomic.Bool, n)}
	batches := (n + batch - 1) / batch
	p.genLeft = make([]atomic.Int32, batches)
	p.genDone = make([]chan struct{}, batches)
	for j := range p.genDone {
		p.genLeft[j].Store(int32(min(batch, n-j*batch)))
		p.genDone[j] = make(chan struct{})
	}
	return p
}

func (p *barrierProbe) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	p.generated[k].Store(true)
	if j := k / p.batch; p.genLeft[j].Add(-1) == 0 {
		close(p.genDone[j])
	}
}

func (p *barrierProbe) Score(w, lo, hi int) {
	start := lo / p.batch * p.batch
	end := min(start+p.batch, len(p.scored))
	if lo >= hi || (lo-start)%scoreChunk != 0 || hi != min(lo+scoreChunk, end) {
		p.t.Errorf("chunk [%d,%d) is not a %d-sample chunk of batch [%d,%d)", lo, hi, scoreChunk, start, end)
		return
	}
	if p.flushed.Load() < int64(start) {
		p.t.Errorf("chunk [%d,%d) scored before the flush of [0,%d) returned (flushed %d)", lo, hi, start, p.flushed.Load())
	}
	for k := lo; k < hi; k++ {
		if !p.generated[k].Load() {
			p.t.Errorf("sample %d scored before it generated", k)
		}
		if !p.scored[k].CompareAndSwap(false, true) {
			p.t.Errorf("sample %d scored twice", k)
		}
	}
}

// Resolve checks its batch has scored and then settles no faster than the
// next batch generates — the driver starts that generation first, and real
// settlement is the slower side — so a driver that scored the next batch
// straight after generating it would do so while this batch is still
// settling, before its Flush.
func (p *barrierProbe) Resolve(lo, hi int) {
	for k := lo; k < hi; k++ {
		if !p.scored[k].Load() {
			p.t.Fatalf("resolve [%d,%d) before sample %d scored", lo, hi, k)
		}
	}
	if j := hi / p.batch; j < len(p.genDone) {
		<-p.genDone[j]
	}
}

func (p *barrierProbe) Value(k int, x linalg.Vector) float64 {
	p.valued[k].Store(true)
	return 0
}

// flush checks the range, that the next batch has not scored yet, and
// then records the barrier as returned.
func (p *barrierProbe) flush(next *int) func(lo, hi int) {
	return func(lo, hi int) {
		if lo != *next {
			p.t.Fatalf("flush [%d,%d): expected lo=%d", lo, hi, *next)
		}
		for k := lo; k < hi; k++ {
			if !p.valued[k].Load() {
				p.t.Fatalf("flush [%d,%d): sample %d not valued yet", lo, hi, k)
			}
		}
		for k := hi; k < min(hi+p.batch, len(p.scored)); k++ {
			if p.scored[k].Load() {
				p.t.Errorf("sample %d scored before the flush of [0,%d) returned", k, hi)
				break
			}
		}
		*next = hi
		p.flushed.Store(int64(hi))
	}
}

// TestImportanceSampleParFlushBarrier: Flush must see contiguous, in-order,
// non-overlapping ranges covering [0, n) exactly once, after every sample of
// the range has been valued; the next batch may generate early but scores
// only after that Flush returns, in chunks that cover every sample exactly
// once, and a batch resolves only once all of it has scored.
func TestImportanceSampleParFlushBarrier(t *testing.T) {
	const n = 1000
	for _, batch := range []int{128, 256} {
		for _, workers := range []int{1, 4} {
			var c Counter
			p := newBarrierProbe(t, n, batch)
			next := 0
			ImportanceSamplePar(context.Background(), gaussianBump{dim: 2}, p, n,
				ParOptions{Seed: 1, Workers: workers, Batch: batch, Flush: p.flush(&next)}, &c, 0)
			if next != n {
				t.Fatalf("batch=%d workers=%d: flush covered [0,%d), want [0,%d)", batch, workers, next, n)
			}
			for k := range p.scored {
				if !p.scored[k].Load() {
					t.Fatalf("batch=%d workers=%d: sample %d never scored", batch, workers, k)
				}
			}
		}
	}
}

// TestImportanceSampleParCancellation: a cancelled context stops the run at
// a batch boundary with a partial, finishable series.
func TestImportanceSampleParCancellation(t *testing.T) {
	const n, batch = 100000, 64
	var c Counter
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int32
	pv := &hookedRule{pipelinedRule: newPipelinedRule(2*batch, &c), onValue: func() {
		if evals.Add(1) == 200 {
			cancel()
		}
	}}
	series, _ := ImportanceSamplePar(ctx, gaussianBump{dim: 2}, pv, n,
		ParOptions{Seed: 5, Workers: 4, Batch: batch}, &c, 0)
	total := evals.Load()
	if total >= n {
		t.Fatal("cancellation did not stop the run")
	}
	// The in-flight batch completes, so the evaluation count lands on a
	// batch boundary — the deterministic-stop property.
	if total%batch != 0 {
		t.Fatalf("stopped mid-batch after %d evaluations", total)
	}
	if len(series) == 0 {
		t.Fatal("partial run recorded no series")
	}
	if fin := series.Final(); fin.Sims != int64(total) {
		t.Fatalf("final point at %d sims, want the %d settled samples", fin.Sims, total)
	}
}

// hookedRule is a pipelinedRule with optional per-call hooks.
type hookedRule struct {
	*pipelinedRule
	onGenerate, onValue func()
}

func (s *hookedRule) Generate(rng *rand.Rand, k int, x linalg.Vector) {
	if s.onGenerate != nil {
		s.onGenerate()
	}
	s.pipelinedRule.Generate(rng, k, x)
}

func (s *hookedRule) Value(k int, x linalg.Vector) float64 {
	if s.onValue != nil {
		s.onValue()
	}
	return s.pipelinedRule.Value(k, x)
}

// TestGMMLogPDFConcurrent exercises the lazy prepare() from many goroutines;
// under -race this is the regression test for the sync.Once fix.
func TestGMMLogPDFConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := &GMM{Sigma: linalg.Vector{0.5, 0.5, 0.5}}
	for i := 0; i < 20; i++ {
		g.Means = append(g.Means, randx.NormalVector(rng, 3))
	}
	x := linalg.Vector{0.1, -0.2, 0.3}
	got := make([]float64, 64)
	ParFor(8, 64, func(w, i int) {
		got[i] = g.LogPDF(x)
	})
	want := g.LogPDF(x)
	if math.IsNaN(want) || math.IsInf(want, 0) {
		t.Fatalf("LogPDF degenerate: %v", want)
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("concurrent LogPDF %d inconsistent: %v vs %v", i, v, want)
		}
	}
}
