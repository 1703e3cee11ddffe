package svm

import (
	"math"
	"math/rand"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/vecmath"
)

// naiveTransform is the original per-tuple walk, kept as the reference the
// compiled program must reproduce bit-for-bit.
func naiveTransform(pf *PolyFeatures, x linalg.Vector, dst linalg.Vector) {
	stride := pf.Degree + 1
	pows := make([]float64, pf.Dim*stride)
	for d := 0; d < pf.Dim; d++ {
		pows[d*stride] = 1
		xv := x[d] / pf.Scale
		for k := 1; k <= pf.Degree; k++ {
			pows[d*stride+k] = pows[d*stride+k-1] * xv
		}
	}
	for i, tup := range pf.exps {
		v := 1.0
		for d, e := range tup {
			if e > 0 {
				v *= pows[d*stride+e]
			}
		}
		dst[i] = v
	}
}

// TestProgramMatchesNaiveTransform pins the bit-for-bit equivalence of the
// compiled incremental-product transform and the tuple walk, across shapes.
func TestProgramMatchesNaiveTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ dim, degree int }{
		{1, 1}, {1, 4}, {2, 2}, {3, 5}, {6, 4}, {8, 3},
	}
	for _, sh := range shapes {
		pf := NewPolyFeatures(sh.dim, sh.degree, 0)
		want := make(linalg.Vector, pf.NumFeatures())
		got := make(linalg.Vector, pf.NumFeatures())
		for trial := 0; trial < 200; trial++ {
			x := make(linalg.Vector, sh.dim)
			for d := range x {
				x[d] = rng.NormFloat64() * 5
			}
			naiveTransform(pf, x, want)
			pf.TransformInto(x, got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("dim=%d deg=%d feature %d: naive %g, program %g",
						sh.dim, sh.degree, i, want[i], got[i])
				}
			}
		}
	}
}

// TestScoreBatchMatchesClassifier pins Scorer.Score and Scorer.ScoreBatch
// against Classifier.Score on a trained classifier: all three paths must
// produce the identical float64, at every batch length across the kernel's
// 16-draw blocks, with the vector path on and off; and the scorer, a view,
// must follow the classifier's later updates.
func TestScoreBatchMatchesClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pf := NewPolyFeatures(6, 4, 0)
	c := NewClassifier(pf, 1e-4)
	// Train on a signed-distance toy problem so the weights are dense.
	xs := make([]linalg.Vector, 400)
	ys := make([]bool, 400)
	for i := range xs {
		x := make(linalg.Vector, 6)
		for d := range x {
			x[d] = rng.NormFloat64() * 4
		}
		xs[i] = x
		ys[i] = x.Norm() > 4
	}
	c.Train(rng, xs, ys, 5)

	scorer := c.NewScorer()
	probe := make([]linalg.Vector, 100)
	for i := range probe {
		x := make(linalg.Vector, 6)
		for d := range x {
			x[d] = rng.NormFloat64() * 4
		}
		probe[i] = x
	}
	for _, vec := range vectorModes() {
		useAVX2 = vec
		for _, n := range []int{0, 1, 15, 16, 17, 33, 100} {
			batch := make([]float64, n)
			scorer.ScoreBatch(probe[:n], batch)
			for i, x := range probe[:n] {
				want := c.Score(x)
				if got := scorer.Score(x); got != want {
					t.Fatalf("scorer.Score(%d) = %g, classifier %g", i, got, want)
				}
				if batch[i] != want {
					t.Fatalf("vector=%v n=%d: ScoreBatch[%d] = %g, classifier %g", vec, n, i, batch[i], want)
				}
			}
		}
	}
	useAVX2 = vecmath.Enabled()

	// A scorer reads the live weights: after an update it scores the new
	// classifier.
	before := scorer.Score(probe[0])
	c.Update(probe[0], true)
	out := make([]float64, 1)
	scorer.ScoreBatch(probe[:1], out)
	if want := c.Score(probe[0]); want == before || out[0] != want {
		t.Fatalf("after Update: classifier %g (was %g), ScoreBatch %g", want, before, out[0])
	}
}

// vectorModes lists the ScoreBatch paths this machine can run: the vector
// kernel where AVX2 is present, and always the per-draw loop.
func vectorModes() []bool {
	if vecmath.Enabled() {
		return []bool{true, false}
	}
	return []bool{false}
}

// sameScore reports bit equality, counting any two NaNs as equal: a NaN's
// payload depends on which operand the hardware propagates, which Go's
// compiler is free to choose for a commutative multiply or add.
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzScoreBatch scores a batch of 0–40 draws against random weights —
// ±0 and large magnitudes among them — with inputs from the bulk out to
// large values and NaN, and requires ScoreBatch to equal Score draw by
// draw, with the vector path on and off.
func FuzzScoreBatch(f *testing.F) {
	f.Add(int64(1), uint8(17), uint8(6), uint8(4), 4.0)
	f.Add(int64(2), uint8(40), uint8(3), uint8(2), 1e3)
	f.Add(int64(3), uint8(0), uint8(1), uint8(1), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n, dim, degree uint8, spread float64) {
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 1
		}
		rng := rand.New(rand.NewSource(seed))
		pf := NewPolyFeatures(1+int(dim%8), 1+int(degree%5), 0)
		c := NewClassifier(pf, 1e-4)
		for i := range c.w {
			switch rng.Intn(8) {
			case 0:
				c.w[i] = 0
			case 1:
				c.w[i] = math.Copysign(0, -1)
			case 2:
				c.w[i] = rng.NormFloat64() * 1e150
			default:
				c.w[i] = rng.NormFloat64()
			}
		}
		xs := make([]linalg.Vector, int(n%41))
		for i := range xs {
			x := make(linalg.Vector, pf.Dim)
			for d := range x {
				switch rng.Intn(16) {
				case 0:
					x[d] = math.NaN()
				case 1:
					x[d] = rng.NormFloat64() * 1e80
				default:
					x[d] = rng.NormFloat64() * spread
				}
			}
			xs[i] = x
		}
		s := c.NewScorer()
		out := make([]float64, len(xs))
		for _, vec := range vectorModes() {
			useAVX2 = vec
			s.ScoreBatch(xs, out)
			useAVX2 = vecmath.Enabled()
			for i, x := range xs {
				if want := s.Score(x); !sameScore(out[i], want) {
					t.Fatalf("vector=%v draw %d of %d (dim %d degree %d) x=%v: ScoreBatch %v (%#x), Score %v (%#x)",
						vec, i, len(xs), pf.Dim, pf.Degree, x, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
				}
			}
		}
	})
}

func BenchmarkTransformInto(b *testing.B) {
	pf := NewPolyFeatures(6, 4, 0)
	x := linalg.Vector{0.3, -1.2, 2.4, 0.1, -0.7, 1.9}
	dst := make(linalg.Vector, pf.NumFeatures())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.TransformInto(x, dst)
	}
}
