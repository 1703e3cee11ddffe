package randx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecripse/internal/linalg"
)

func TestNormalVectorMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := NormalVector(rng, 3)
		for _, x := range v {
			sum += x
			sum2 += x * x
		}
	}
	mean := sum / (3 * n)
	vr := sum2/(3*n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(vr-1) > 0.02 {
		t.Fatalf("var = %v", vr)
	}
}

func TestSphereDirectionUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		d := 1 + rng.Intn(8)
		v := SphereDirection(rng, d)
		if math.Abs(v.Norm()-1) > 1e-12 {
			t.Fatalf("norm = %v for d=%d", v.Norm(), d)
		}
	}
}

func TestSphereDirectionIsotropy(t *testing.T) {
	// Mean direction of many draws must vanish.
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	mean := linalg.NewVector(4)
	for i := 0; i < n; i++ {
		mean.AddInPlace(SphereDirection(rng, 4))
	}
	for d, x := range mean {
		if math.Abs(x/n) > 0.01 {
			t.Fatalf("dimension %d mean = %v", d, x/n)
		}
	}
}

func TestStdNormalPDFOrigin(t *testing.T) {
	for d := 1; d <= 6; d++ {
		x := linalg.NewVector(d)
		want := math.Pow(2*math.Pi, -float64(d)/2)
		if got := StdNormalPDF(x); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("d=%d: pdf(0) = %v want %v", d, got, want)
		}
	}
}

func TestNormalLogPDFMatchesStdAtUnitSigma(t *testing.T) {
	x := linalg.Vector{0.3, -1.2, 2.0}
	mu := linalg.NewVector(3)
	sigma := linalg.Vector{1, 1, 1}
	if got, want := NormalLogPDF(x, mu, sigma), StdNormalLogPDF(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNormalLogPDFScaling(t *testing.T) {
	// N(x|mu, s²) = N((x-mu)/s | 0,1)/s per dimension.
	x := linalg.Vector{0.5}
	mu := linalg.Vector{0.1}
	sigma := linalg.Vector{2.5}
	z := (x[0] - mu[0]) / sigma[0]
	want := StdNormalLogPDF(linalg.Vector{z}) - math.Log(sigma[0])
	if got := NormalLogPDF(x, mu, sigma); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func testPoissonMoments(t *testing.T, lambda float64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(lambda*1000) + 7))
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		k := float64(Poisson(rng, lambda))
		sum += k
		sum2 += k * k
	}
	mean := sum / float64(n)
	vr := sum2/float64(n) - mean*mean
	tol := 5 * math.Sqrt(lambda/float64(n)) // ~5 sigma of the sample mean
	if math.Abs(mean-lambda) > tol+0.01 {
		t.Fatalf("lambda=%v: mean = %v (tol %v)", lambda, mean, tol)
	}
	if math.Abs(vr-lambda) > 10*tol*math.Sqrt(lambda)+0.05 {
		t.Fatalf("lambda=%v: var = %v", lambda, vr)
	}
}

func TestPoissonSmallLambda(t *testing.T)  { testPoissonMoments(t, 1.92, 200000) }
func TestPoissonMediumLambda(t *testing.T) { testPoissonMoments(t, 12.0, 100000) }
func TestPoissonLargeLambda(t *testing.T)  { testPoissonMoments(t, 120.0, 100000) }

// poissonUncached is Poisson as it was before PoissonDist: Knuth's threshold
// exp(−λ) computed inside every draw. It is the reference the cached draw
// is pinned against.
func poissonUncached(rng *rand.Rand, lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return poissonPTRS(rng, lambda)
	}
}

// TestPoissonDistMatchesUncached: a PoissonDist built once draws the same
// counts as the per-call threshold from the same rng state, and leaves the
// rng in the same state, on both sides of the Knuth/PTRS switch.
func TestPoissonDistMatchesUncached(t *testing.T) {
	for _, lambda := range []float64{0, 1e-3, 0.5, 5, 29.9, 30, 80} {
		d := NewPoissonDist(lambda)
		cached := rand.New(rand.NewSource(17))
		plain := rand.New(rand.NewSource(17))
		for i := 0; i < 5000; i++ {
			got, want := d.Draw(cached), poissonUncached(plain, lambda)
			if got != want {
				t.Fatalf("lambda=%v draw %d: cached %d, uncached %d", lambda, i, got, want)
			}
			if i%7 == 0 {
				if got := Poisson(cached, lambda); got != poissonUncached(plain, lambda) {
					t.Fatalf("lambda=%v draw %d: Poisson disagrees with the uncached draw", lambda, i)
				}
			}
		}
		if cached.Int63() != plain.Int63() {
			t.Fatalf("lambda=%v: the cached draw consumed a different number of uniforms", lambda)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if Poisson(rng, 0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	if Poisson(rng, -3) != 0 {
		t.Fatal("Poisson(-3) != 0")
	}
}

func TestPoissonNeverNegative(t *testing.T) {
	f := func(seed int64, l uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := float64(l) / 2.0 // 0 .. 127.5 crosses both samplers
		for i := 0; i < 100; i++ {
			if Poisson(rng, lambda) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("P(0) = %v want 0.25", frac0)
	}
}

func TestCategoricalAllZeroUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[Categorical(rng, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/40000-0.25) > 0.02 {
			t.Fatalf("index %d count %d not uniform", i, c)
		}
	}
}

func TestCategoricalNegativeTreatedAsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		if Categorical(rng, []float64{-5, 1}) == 0 {
			t.Fatal("negative-weight index drawn")
		}
	}
}

func TestSystematicResampleProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const n = 10000
	idx := SystematicResample(rng, weights, n)
	if len(idx) != n {
		t.Fatalf("len = %d", len(idx))
	}
	for _, i := range idx {
		counts[i]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > n*0.02 {
			t.Fatalf("index %d: count %d want ~%v", i, counts[i], want)
		}
	}
}

func TestSystematicResampleLowVariance(t *testing.T) {
	// With equal weights and n == len(weights), systematic resampling must
	// return every index exactly once.
	rng := rand.New(rand.NewSource(10))
	weights := []float64{1, 1, 1, 1, 1}
	for trial := 0; trial < 100; trial++ {
		idx := SystematicResample(rng, weights, 5)
		seen := make(map[int]bool)
		for _, i := range idx {
			seen[i] = true
		}
		if len(seen) != 5 {
			t.Fatalf("trial %d: got %v", trial, idx)
		}
	}
}

func TestSystematicResampleDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	if got := SystematicResample(rng, nil, 5); got != nil {
		t.Fatalf("nil weights: %v", got)
	}
	if got := SystematicResample(rng, []float64{1}, 0); got != nil {
		t.Fatalf("n=0: %v", got)
	}
	idx := SystematicResample(rng, []float64{0, 0}, 10)
	if len(idx) != 10 {
		t.Fatalf("all-zero weights: len %d", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i > 1 {
			t.Fatalf("index out of range: %d", i)
		}
	}
}

// Property: resampled indices are always in range and counts sum to n.
func TestPropertySystematicResampleInRange(t *testing.T) {
	f := func(seed int64, raw []float64, n uint8) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			w[i] = math.Abs(math.Mod(x, 100))
		}
		k := int(n%50) + 1
		idx := SystematicResample(rng, w, k)
		if len(idx) != k {
			return false
		}
		for _, i := range idx {
			if i < 0 || i >= len(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
