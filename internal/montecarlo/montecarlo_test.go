package montecarlo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
	"ecripse/internal/stats"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(4)
	if c.Count() != 7 {
		t.Fatalf("count = %d", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestNaiveEstimatesKnownProbability(t *testing.T) {
	// 1-D threshold problem: P(x > 2) for x~N(0,1) = 0.02275.
	rng := rand.New(rand.NewSource(1))
	var c Counter
	trial := func(r *rand.Rand) bool {
		c.Add(1)
		return r.NormFloat64() > 2
	}
	series := Naive(rng, trial, 400000, &c, 0)
	got := series.Final().P
	want := 0.02275
	if math.Abs(got-want) > 0.002 {
		t.Fatalf("P = %v want %v", got, want)
	}
	if series.Final().Sims != 400000 {
		t.Fatalf("sims = %d", series.Final().Sims)
	}
}

func TestNaiveSeriesMonotoneSims(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var c Counter
	trial := func(r *rand.Rand) bool { c.Add(1); return r.Float64() < 0.5 }
	series := Naive(rng, trial, 10000, &c, 500)
	if len(series) < 10 {
		t.Fatalf("too few points: %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].Sims <= series[i-1].Sims {
			t.Fatalf("sims not increasing at %d", i)
		}
	}
}

func TestGMMSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := &GMM{
		Means: []linalg.Vector{{-2, 0}, {2, 0}},
		Sigma: linalg.Vector{0.5, 1.5},
	}
	const n = 200000
	var sx, sxx, sy, syy float64
	for i := 0; i < n; i++ {
		x := g.Sample(rng)
		sx += x[0]
		sxx += x[0] * x[0]
		sy += x[1]
		syy += x[1] * x[1]
	}
	mx, my := sx/n, sy/n
	if math.Abs(mx) > 0.02 || math.Abs(my) > 0.02 {
		t.Fatalf("means %v %v", mx, my)
	}
	// Var(x0) = E[mean²] + sigma² = 4 + 0.25.
	vx := sxx/n - mx*mx
	if math.Abs(vx-4.25) > 0.1 {
		t.Fatalf("var x0 = %v", vx)
	}
	vy := syy/n - my*my
	if math.Abs(vy-2.25) > 0.05 {
		t.Fatalf("var x1 = %v", vy)
	}
}

func TestGMMPDFIntegratesToOne(t *testing.T) {
	// 1-D trapezoid integration of the density.
	g := &GMM{Means: []linalg.Vector{{-1}, {2}}, Sigma: linalg.Vector{0.7}}
	sum := 0.0
	const h = 0.01
	for x := -8.0; x <= 10; x += h {
		sum += g.PDF(linalg.Vector{x}) * h
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("integral = %v", sum)
	}
}

func TestGMMSingleComponentMatchesNormal(t *testing.T) {
	g := &GMM{Means: []linalg.Vector{{0, 0, 0}}, Sigma: linalg.Vector{1, 1, 1}}
	for _, x := range []linalg.Vector{{0, 0, 0}, {1, -1, 2}, {3, 3, 3}} {
		want := randx.StdNormalLogPDF(x)
		if got := g.LogPDF(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("LogPDF(%v) = %v want %v", x, got, want)
		}
	}
}

func TestGMMLogPDFFarTail(t *testing.T) {
	g := &GMM{Means: []linalg.Vector{{0}}, Sigma: linalg.Vector{1}}
	lp := g.LogPDF(linalg.Vector{40})
	if math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Fatalf("far-tail log pdf = %v", lp)
	}
	if lp > -700 {
		t.Fatalf("far-tail log pdf suspiciously large: %v", lp)
	}
}

func TestImportanceSampleUnbiasedOnIndicator(t *testing.T) {
	// Estimate P(x0 > 2.5) in 2-D with a proposal centered in the failure
	// region; compare with the analytic 0.0062097.
	rng := rand.New(rand.NewSource(4))
	var c Counter
	value := func(x linalg.Vector) float64 {
		c.Add(1)
		if x[0] > 2.5 {
			return 1
		}
		return 0
	}
	q := &GMM{Means: []linalg.Vector{{2.8, 0}}, Sigma: linalg.Vector{0.6, 1.0}}
	series := ImportanceSample(rng, q, value, 60000, &c, 0)
	got := series.Final().P
	want := 0.0062097
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("IS estimate %v want %v", got, want)
	}
}

func TestImportanceSampleBeatsNaiveVariance(t *testing.T) {
	// For the same sample budget, a good proposal must give a smaller CI
	// than naive MC on a rare event.
	want := 0.0062097
	const n = 20000

	rngA := rand.New(rand.NewSource(5))
	var cA Counter
	trial := func(r *rand.Rand) bool { cA.Add(1); return r.NormFloat64() > 2.5 }
	naive := Naive(rngA, trial, n, &cA, 0).Final()

	rngB := rand.New(rand.NewSource(6))
	var cB Counter
	value := func(x linalg.Vector) float64 {
		cB.Add(1)
		if x[0] > 2.5 {
			return 1
		}
		return 0
	}
	q := &GMM{Means: []linalg.Vector{{2.9}}, Sigma: linalg.Vector{0.7}}
	is := ImportanceSample(rngB, q, value, n, &cB, 0).Final()

	if is.CI95 >= naive.CI95 {
		t.Fatalf("IS CI %v not better than naive CI %v", is.CI95, naive.CI95)
	}
	if math.Abs(is.P-want)/want > 0.15 {
		t.Fatalf("IS estimate off: %v", is.P)
	}
}

func TestImportanceSampleFractionalValues(t *testing.T) {
	// Values in (0,1) (the RTN-aware inner probability) are averaged, not
	// thresholded: E_P[v(x)] with v(x)=Φ-like smooth function.
	rng := rand.New(rand.NewSource(7))
	var c Counter
	value := func(x linalg.Vector) float64 {
		c.Add(1)
		return 1 / (1 + math.Exp(-2*(x[0]-2))) // smooth step around 2
	}
	q := &GMM{Means: []linalg.Vector{{2}}, Sigma: linalg.Vector{1.2}}
	got := ImportanceSample(rng, q, value, 80000, &c, 0).Final().P

	// Reference by plain MC with many samples.
	rng2 := rand.New(rand.NewSource(8))
	var ref stats.Running
	for i := 0; i < 400000; i++ {
		x := rng2.NormFloat64()
		ref.Add(1 / (1 + math.Exp(-2*(x-2))))
	}
	if math.Abs(got-ref.Mean())/ref.Mean() > 0.05 {
		t.Fatalf("IS %v vs reference %v", got, ref.Mean())
	}
}

func TestImportanceSampleRecordsAgainstSharedCounter(t *testing.T) {
	// When stage 1 already consumed simulations, series points must start
	// beyond that offset.
	rng := rand.New(rand.NewSource(9))
	var c Counter
	c.Add(5000)
	value := func(x linalg.Vector) float64 { c.Add(1); return 1 }
	q := &GMM{Means: []linalg.Vector{{0}}, Sigma: linalg.Vector{1}}
	series := ImportanceSample(rng, q, value, 100, &c, 10)
	if series[0].Sims <= 5000 {
		t.Fatalf("first point at %d sims", series[0].Sims)
	}
	if series.Final().Sims != 5100 {
		t.Fatalf("final point at %d sims", series.Final().Sims)
	}
}

// Property: GMM log-pdf is maximal at a component mean for symmetric mixtures.
func TestPropertyGMMPeakAtMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		g := &GMM{Means: []linalg.Vector{m}, Sigma: linalg.Vector{1, 1}}
		peak := g.LogPDF(m)
		for i := 0; i < 10; i++ {
			x := m.Add(randx.NormalVector(rng, 2))
			if g.LogPDF(x) > peak+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveQMCEstimatesMean(t *testing.T) {
	// E[sigmoid-ish value] estimated by QMC must match plain MC tightly.
	var c Counter
	value := func(x linalg.Vector) float64 {
		c.Add(1)
		if x[0]+x[1] > 1 {
			return 1
		}
		return 0
	}
	series := NaiveQMC(2, value, 40000, &c, 0)
	// P(x0+x1 > 1), x_i iid N(0,1): 1 - Phi(1/sqrt(2)) = 0.23975.
	got := series.Final().P
	if math.Abs(got-0.23975) > 0.003 {
		t.Fatalf("QMC estimate = %v", got)
	}
	if c.Count() != 40000 {
		t.Fatalf("sims = %d", c.Count())
	}
}

func TestNaiveQMCBeatsMCOnSmoothMean(t *testing.T) {
	// On a smooth integrand the deterministic QMC error at n samples should
	// be well below the typical MC standard error.
	value := func(x linalg.Vector) float64 {
		return 1 / (1 + math.Exp(-x[0])) // E = 0.5 exactly by symmetry
	}
	var c Counter
	const n = 20000
	qmc := NaiveQMC(1, func(x linalg.Vector) float64 { c.Add(1); return value(x) }, n, &c, 0).Final().P
	qmcErr := math.Abs(qmc - 0.5)
	// MC standard error of this integrand is ~0.21/sqrt(n) ≈ 1.5e-3.
	if qmcErr > 5e-4 {
		t.Fatalf("QMC error %v too large", qmcErr)
	}
}

func TestDefensiveMixtureProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := &GMM{Means: []linalg.Vector{{4, 0}}, Sigma: linalg.Vector{0.5, 0.5}}
	d := &DefensiveMixture{Q: q, Rho: 0.3, Dim: 2}

	// Density: Q'(x) = 0.3·P(x) + 0.7·Q(x); check against direct evaluation.
	for _, x := range []linalg.Vector{{0, 0}, {4, 0}, {2, 1}, {-3, 2}} {
		want := math.Log(0.3*randx.StdNormalPDF(x) + 0.7*q.PDF(x))
		if got := d.LogPDF(x); math.Abs(got-want) > 1e-9 {
			t.Fatalf("LogPDF(%v) = %v want %v", x, got, want)
		}
	}

	// The importance weight P/Q' is bounded by 1/Rho everywhere.
	for i := 0; i < 5000; i++ {
		x := d.Sample(rng)
		w := math.Exp(randx.StdNormalLogPDF(x) - d.LogPDF(x))
		if w > 1/0.3+1e-9 {
			t.Fatalf("weight %v exceeds 1/rho", w)
		}
	}

	// Sampling moments: mixture mean = 0.7·(4,0).
	var sx float64
	const n = 200000
	for i := 0; i < n; i++ {
		sx += d.Sample(rng)[0]
	}
	if got := sx / n; math.Abs(got-2.8) > 0.03 {
		t.Fatalf("mixture mean = %v want 2.8", got)
	}
}

func TestGMMDim(t *testing.T) {
	g := &GMM{Means: []linalg.Vector{{0, 0, 0}}, Sigma: linalg.Vector{1, 1, 1}}
	if g.Dim() != 3 {
		t.Fatalf("Dim = %d", g.Dim())
	}
}

func TestGMMZeroWeightComponentNeverSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := &GMM{
		Means:   []linalg.Vector{{-100}, {5}},
		Sigma:   linalg.Vector{0.1},
		Weights: []float64{0, 1},
	}
	for i := 0; i < 5000; i++ {
		if x := g.Sample(rng); x[0] < 0 {
			t.Fatalf("zero-weight component sampled: %v", x)
		}
	}
	// And it contributes nothing to the density.
	lp := g.LogPDF(linalg.Vector{-100})
	if lp > -1000 {
		t.Fatalf("zero-weight component leaks density: %v", lp)
	}
}

// TestGMMComponentMatchesCategorical pins the cached component draw to
// randx.Categorical: from the same rng state both return the same index and
// leave the rng in the same state, on weight vectors with zero, negative,
// tiny and all-non-positive entries.
func TestGMMComponentMatchesCategorical(t *testing.T) {
	gen := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		k := 1 + gen.Intn(40)
		if trial%10 == 0 {
			k = 600 // the stage-2 proposal's pooled size
		}
		ws := make([]float64, k)
		for i := range ws {
			switch r := gen.Float64(); {
			case r < 0.15:
				ws[i] = 0
			case r < 0.25:
				ws[i] = -gen.Float64()
			case r < 0.30:
				ws[i] = 1e-300 * gen.Float64()
			default:
				ws[i] = gen.ExpFloat64()
			}
		}
		if trial%25 == 0 {
			for i := range ws {
				ws[i] = -math.Abs(ws[i]) // no positive weight: uniform draw
			}
		}
		g := &GMM{Means: make([]linalg.Vector, k), Sigma: linalg.Vector{1}, Weights: ws}
		seed := gen.Int63()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for d := 0; d < 300; d++ {
			got, want := g.component(a), randx.Categorical(b, ws)
			if got != want {
				t.Fatalf("trial %d draw %d: component %d, Categorical %d (weights %v)", trial, d, got, want, ws)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("trial %d: rng states diverged", trial)
		}
	}
}

func TestImportanceSampleZeroFailures(t *testing.T) {
	// A value that never fails: the estimate is exactly 0 and the series
	// never satisfies any relative-error target.
	rng := rand.New(rand.NewSource(12))
	var c Counter
	value := func(x linalg.Vector) float64 { c.Add(1); return 0 }
	q := &GMM{Means: []linalg.Vector{{0}}, Sigma: linalg.Vector{1}}
	series := ImportanceSample(rng, q, value, 500, &c, 50)
	if series.Final().P != 0 {
		t.Fatalf("P = %v", series.Final().P)
	}
	if _, ok := series.SimsToRelErr(0.5); ok {
		t.Fatal("zero estimate must not satisfy a relerr target")
	}
	if _, ok := series.SimsToRelErrStable(0.5); ok {
		t.Fatal("zero estimate must not satisfy a stable relerr target")
	}
}
