package svm

import (
	"fmt"
	"math/rand"

	"ecripse/internal/linalg"
	"ecripse/internal/vecmath"
)

// Classifier is a linear SVM over polynomial features, trained by the
// Pegasos stochastic subgradient method (hinge loss, L2 regularization).
// Labels are booleans: true = failure (y = +1), false = pass (y = −1).
type Classifier struct {
	Features *PolyFeatures
	Lambda   float64 // regularization strength
	w        linalg.Vector
	t        int // cumulative SGD step count (drives the 1/(λt) step size)

	// scratch is the reusable feature buffer for Score/Predict/Update. A
	// Classifier is therefore NOT safe for concurrent use — matching the
	// estimator design, where one engine owns one classifier.
	scratch linalg.Vector
}

// NewClassifier builds an untrained classifier. lambda <= 0 defaults to 1e-4.
func NewClassifier(pf *PolyFeatures, lambda float64) *Classifier {
	if lambda <= 0 {
		lambda = 1e-4
	}
	return &Classifier{
		Features: pf,
		Lambda:   lambda,
		w:        make(linalg.Vector, pf.NumFeatures()),
	}
}

// Score returns the signed decision value w·f(x); positive means predicted
// failure. Magnitude grows with distance from the separating hyper-plane.
func (c *Classifier) Score(x linalg.Vector) float64 {
	if c.scratch == nil {
		c.scratch = make(linalg.Vector, c.Features.NumFeatures())
	}
	c.Features.TransformInto(x, c.scratch)
	return c.scoreFeatures(c.scratch)
}

func (c *Classifier) scoreFeatures(f linalg.Vector) float64 { return c.w.Dot(f) }

// Predict reports the predicted failure label of x.
func (c *Classifier) Predict(x linalg.Vector) bool { return c.Score(x) > 0 }

// Uncertain reports whether x lies within the margin band (|score| < band):
// the stage-2 flow simulates such samples instead of trusting the blockade.
func (c *Classifier) Uncertain(x linalg.Vector, band float64) bool {
	s := c.Score(x)
	return s > -band && s < band
}

// Trained reports whether any training has occurred.
func (c *Classifier) Trained() bool { return c.t > 0 }

// step performs one Pegasos update with feature vector f and label y∈{±1}.
func (c *Classifier) step(f linalg.Vector, y float64) {
	c.t++
	eta := 1 / (c.Lambda * float64(c.t))
	margin := y * c.scoreFeatures(f)
	decay := 1 - eta*c.Lambda
	for i := range c.w {
		c.w[i] *= decay
	}
	if margin < 1 {
		for i := range c.w {
			c.w[i] += eta * y * f[i]
		}
	}
}

// Train runs epochs passes of shuffled SGD over the labelled set.
func (c *Classifier) Train(rng *rand.Rand, xs []linalg.Vector, fails []bool, epochs int) {
	if len(xs) != len(fails) {
		panic("svm: labels do not match inputs")
	}
	if len(xs) == 0 {
		return
	}
	if epochs <= 0 {
		epochs = 20
	}
	feats := make([]linalg.Vector, len(xs))
	for i, x := range xs {
		feats[i] = c.Features.Transform(x)
	}
	for e := 0; e < epochs; e++ {
		for _, i := range rng.Perm(len(feats)) {
			y := -1.0
			if fails[i] {
				y = 1
			}
			c.step(feats[i], y)
		}
	}
}

// Update performs a single incremental step with a freshly simulated label,
// continuing the existing step-size schedule (the stage-2 "incrementally
// train the classifier" path). The feature transform reuses the classifier's
// scratch buffer, so the hot retraining path allocates nothing.
func (c *Classifier) Update(x linalg.Vector, failed bool) {
	y := -1.0
	if failed {
		y = 1
	}
	if c.scratch == nil {
		c.scratch = make(linalg.Vector, c.Features.NumFeatures())
	}
	c.Features.TransformInto(x, c.scratch)
	c.step(c.scratch, y)
}

// Scorer is a read-only scoring view of a Classifier with its own feature
// scratch buffer. Any number of Scorers may evaluate concurrently as long as
// no Train/Update runs at the same time — exactly the batch-barrier contract
// of the parallel estimator, which freezes the weights while workers score
// and applies updates single-threaded at the barrier.
type Scorer struct {
	c       *Classifier
	scratch linalg.Vector
	pows    []float64

	// ScoreBatch's kernel buffers, built on first use: the transposed
	// block of draws and the power and feature tables, scoreLanes values
	// per row.
	xT, table []float64
}

// scoreLanes is the number of draws the vector kernel scores per call.
const scoreLanes = 16

// useAVX2 selects the vector kernel for ScoreBatch. It is vecmath's CPU
// check, held here so that tests can switch the vector path off.
var useAVX2 = vecmath.Enabled()

// NewScorer builds a scoring view over the classifier.
func (c *Classifier) NewScorer() *Scorer {
	return &Scorer{
		c:       c,
		scratch: make(linalg.Vector, c.Features.NumFeatures()),
		pows:    make([]float64, c.Features.Dim*(c.Features.Degree+1)),
	}
}

// Score returns the signed decision value w·f(x), bit-identical to
// Classifier.Score against the same (frozen) weights: the fused
// program pass accumulates the dot product in feature-index order.
func (s *Scorer) Score(x linalg.Vector) float64 {
	pf := s.c.Features
	if len(x) != pf.Dim {
		panic(fmt.Sprintf("svm: input dim %d, want %d", len(x), pf.Dim))
	}
	pf.fillPows(x, s.pows)
	return pf.prog.score(s.c.w, s.pows, s.scratch)
}

// Predict reports the predicted failure label of x.
func (s *Scorer) Predict(x linalg.Vector) bool { return s.Score(x) > 0 }

// ScoreBatch sets out[i] = Score(xs[i]) for every draw, bit for bit (a NaN
// score may differ in its payload only); out must be at least as long as
// xs. On AVX2 hardware one kernel call scores
// 16 draws, running the program's multiply chain once per feature for all
// of them; a partial last block is padded and its extra lanes discarded.
// Elsewhere it is the per-draw loop.
func (s *Scorer) ScoreBatch(xs []linalg.Vector, out []float64) {
	if !useAVX2 {
		for i, x := range xs {
			out[i] = s.Score(x)
		}
		return
	}
	pf := s.c.Features
	prog := &pf.prog
	if s.xT == nil {
		s.xT = make([]float64, pf.Dim*scoreLanes)
		s.table = make([]float64, (pf.Dim*(pf.Degree+1)+pf.NumFeatures())*scoreLanes)
	}
	var lanes [scoreLanes]float64
	for base := 0; base < len(xs); base += scoreLanes {
		block := xs[base:min(base+scoreLanes, len(xs))]
		// Lanes past the block keep whatever draws they last held: any
		// value is safe there, and their scores are dropped.
		for b, x := range block {
			if len(x) != pf.Dim {
				panic(fmt.Sprintf("svm: input dim %d, want %d", len(x), pf.Dim))
			}
			for d, v := range x {
				s.xT[d*scoreLanes+b] = v
			}
		}
		scoreAVX2(&lanes[0], &s.xT[0], &s.c.w[0], &prog.parent[0], &prog.pow[0], &s.table[0],
			pf.Dim, pf.Degree, len(prog.parent), pf.Scale)
		copy(out[base:base+len(block)], lanes[:])
	}
}

// Accuracy returns the fraction of correct predictions on a labelled set.
func (c *Classifier) Accuracy(xs []linalg.Vector, fails []bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if c.Predict(x) == fails[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}
