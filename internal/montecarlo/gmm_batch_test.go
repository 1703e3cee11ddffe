package montecarlo

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/vecmath"
)

// randomGMM builds a mixture with the requested size and weighting,
// including dead (zero-weight) components when weighted.
func randomGMM(rng *rand.Rand, dim, k int, weighted bool) *GMM {
	g := &GMM{Sigma: make(linalg.Vector, dim)}
	for d := range g.Sigma {
		g.Sigma[d] = 0.2 + rng.Float64()
	}
	g.Means = make([]linalg.Vector, k)
	for i := range g.Means {
		m := make(linalg.Vector, dim)
		for d := range m {
			m[d] = 4 * rng.NormFloat64()
		}
		g.Means[i] = m
	}
	if weighted {
		g.Weights = make([]float64, k)
		for i := range g.Weights {
			if rng.Float64() < 0.15 {
				g.Weights[i] = 0 // dead component: skipped by both folds
			} else {
				g.Weights[i] = rng.Float64()
			}
		}
	}
	return g
}

// TestGMMLogPDFBatchedMatchesScalar pins the vector LogPDF (the block fold
// of vecmath.GaussLogSumExp) bit-for-bit against the scalar reference fold
// across mixture sizes, weightings, and query points from the bulk to the
// far tail (where the −40 cutoff and the running rescale fire).
func TestGMMLogPDFBatchedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{1, 2, 6} {
		for _, k := range []int{1, 5, 8, 9, 64, 301} {
			for _, weighted := range []bool{false, true} {
				g := randomGMM(rng, dim, k, weighted)
				for trial := 0; trial < 40; trial++ {
					x := make(linalg.Vector, dim)
					scale := 1.0
					if trial%3 == 1 {
						scale = 20 // tail: spreads the component log-densities far past the cutoff
					}
					for d := range x {
						x[d] = scale * rng.NormFloat64()
					}
					got := g.LogPDF(x)
					want := g.logPDFScalar(x)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dim=%d k=%d weighted=%v x=%v: batched %v (%#x) != scalar %v (%#x)",
							dim, k, weighted, x, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestGMMLogPDFBatchedSpecials exercises the degenerate inputs the scalar
// fold defines behavior for: all-dead mixtures (−Inf), NaN and infinite
// query coordinates.
func TestGMMLogPDFBatchedSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	dead := randomGMM(rng, 3, 16, true)
	for i := range dead.Weights {
		dead.Weights[i] = 0
	}
	if got := dead.LogPDF(linalg.Vector{0, 0, 0}); !math.IsInf(got, -1) {
		t.Fatalf("all-dead mixture: got %v want -Inf", got)
	}

	g := randomGMM(rng, 3, 33, false)
	for _, x := range []linalg.Vector{
		{math.NaN(), 0, 0},
		{math.Inf(1), 0, 0},
		{math.Inf(-1), 1, 2},
	} {
		got := g.LogPDF(x)
		want := g.logPDFScalar(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x=%v: batched %v != scalar %v", x, got, want)
		}
	}
}

// FuzzGMMLogPDF pins LogPDF to logPDFScalar bit for bit, with the vector
// path on and off, over dimensions 1–8 and 8–700 components (every size mod
// 4), with zero-weight components and queries out to 20σ. special puts a
// NaN or ±Inf in one coordinate; order arranges the components: as drawn,
// by rising density at the query (every block then holds a new running
// maximum), or with only the last quarter alive (the first finite term
// comes late).
func FuzzGMMLogPDF(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(552), uint8(0), uint8(0), 1.0)
	f.Add(int64(2), uint8(6), uint16(301), uint8(1), uint8(0), 3.0)
	f.Add(int64(3), uint8(2), uint16(9), uint8(2), uint8(0), 1.0)
	f.Add(int64(4), uint8(8), uint16(66), uint8(1), uint8(0), 20.0)
	f.Add(int64(5), uint8(3), uint16(11), uint8(0), uint8(1), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, k uint16, order, special uint8, spread float64) {
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 1
		}
		spread = math.Min(math.Abs(spread), 20)
		rng := rand.New(rand.NewSource(seed))
		d, n := 1+int(dim%8), 8+int(k%693)
		g := randomGMM(rng, d, n, true)
		x := make(linalg.Vector, d)
		for i := range x {
			x[i] = spread * g.Sigma[i] * rng.NormFloat64()
		}
		switch order % 3 {
		case 1:
			// Rising density at the query: sort by log w − ½q (dead
			// components, at −∞, come first).
			l := func(i int) float64 {
				q := 0.0
				for dd, m := range g.Means[i] {
					z := (x[dd] - m) / g.Sigma[dd]
					q += z * z
				}
				return math.Log(g.Weights[i]) - 0.5*q
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return l(idx[a]) < l(idx[b]) })
			means, weights := make([]linalg.Vector, n), make([]float64, n)
			for j, i := range idx {
				means[j], weights[j] = g.Means[i], g.Weights[i]
			}
			g = &GMM{Means: means, Sigma: g.Sigma, Weights: weights}
		case 2:
			for i := 0; i < n*3/4; i++ {
				g.Weights[i] = 0
			}
		}
		switch special % 4 {
		case 1:
			x[rng.Intn(d)] = math.NaN()
		case 2:
			x[rng.Intn(d)] = math.Inf(1)
		case 3:
			x[rng.Intn(d)] = math.Inf(-1)
		}
		g.prepare()
		want := g.logPDFScalar(x)
		for _, vec := range []bool{true, false} {
			if vec && !vecmath.Enabled() {
				continue
			}
			useAVX2 = vec
			got := g.LogPDF(x)
			useAVX2 = vecmath.Enabled()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("vector=%v dim=%d k=%d order=%d x=%v: LogPDF %v (%#x), scalar %v (%#x)",
					vec, d, n, order%3, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

func BenchmarkGMMLogPDF(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	g := randomGMM(rng, 6, 600, true)
	x := make(linalg.Vector, 6)
	for d := range x {
		x[d] = 2 * rng.NormFloat64()
	}
	g.LogPDF(x) // warm the caches
	b.Run("vector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.LogPDF(x)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.logPDFScalar(x)
		}
	})
}
