// Package randx supplies the random variates needed by the estimators:
// standard-normal vectors, Poisson counts (paper eq. (10)), uniform
// directions on the unit D-sphere (used to seed the failure-boundary search)
// and the standard-normal densities that appear in the importance-sampling
// weights.
//
// Every function takes an explicit *rand.Rand so that every experiment in
// this repository is reproducible from a seed; nothing touches the global
// math/rand state.
package randx

import (
	"math"
	"math/rand"

	"ecripse/internal/linalg"
)

// Log2Pi is log(2π), used by the Gaussian log densities.
const Log2Pi = 1.8378770664093454835606594728112353

// NormalVector fills a new D-dimensional vector with independent standard
// normal draws.
func NormalVector(rng *rand.Rand, d int) linalg.Vector {
	v := make(linalg.Vector, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// SphereDirection returns a uniformly distributed unit vector on the
// D-sphere, via normalizing a standard-normal draw. d must be >= 1.
func SphereDirection(rng *rand.Rand, d int) linalg.Vector {
	for {
		v := NormalVector(rng, d)
		if n := v.Norm(); n > 1e-12 {
			return v.Scale(1 / n)
		}
	}
}

// StdNormalLogPDF returns log N(x | 0, I) for a D-dimensional x.
func StdNormalLogPDF(x linalg.Vector) float64 {
	return -0.5*float64(len(x))*Log2Pi - 0.5*x.Norm2()
}

// StdNormalPDF returns N(x | 0, I) for a D-dimensional x.
func StdNormalPDF(x linalg.Vector) float64 {
	return math.Exp(StdNormalLogPDF(x))
}

// NormalLogPDF returns log N(x | mu, diag(sigma²)) where sigma holds the
// per-dimension standard deviations.
func NormalLogPDF(x, mu, sigma linalg.Vector) float64 {
	if len(x) != len(mu) || len(x) != len(sigma) {
		panic("randx: dimension mismatch in NormalLogPDF")
	}
	s := -0.5 * float64(len(x)) * Log2Pi
	for i := range x {
		sd := sigma[i]
		z := (x[i] - mu[i]) / sd
		s -= math.Log(sd) + 0.5*z*z
	}
	return s
}

// Poisson draws from a Poisson distribution with mean lambda.
//
// For small lambda it uses Knuth's multiplication method; for large lambda it
// uses the PTRS transformed-rejection sampler of Hörmann (1993), which is
// exact and O(1). lambda <= 0 always returns 0. Callers that draw many times
// from one mean should build a PoissonDist once instead: it draws the same
// counts without recomputing Knuth's threshold on every call.
func Poisson(rng *rand.Rand, lambda float64) int {
	return NewPoissonDist(lambda).Draw(rng)
}

// PoissonDist is a Poisson distribution with its per-draw constant, Knuth's
// threshold exp(−λ), computed once.
type PoissonDist struct {
	lambda float64
	knuthL float64 // exp(−λ) when 0 < λ < 30, the Knuth range
}

// NewPoissonDist prepares draws with mean lambda.
func NewPoissonDist(lambda float64) PoissonDist {
	d := PoissonDist{lambda: lambda}
	if lambda > 0 && lambda < 30 {
		d.knuthL = math.Exp(-lambda)
	}
	return d
}

// Draw returns one count. From the same rng state it returns exactly what
// Poisson(rng, λ) returns and consumes the same uniforms.
func (d PoissonDist) Draw(rng *rand.Rand) int {
	switch {
	case d.lambda <= 0:
		return 0
	case d.lambda < 30:
		return poissonKnuth(rng, d.knuthL)
	default:
		return poissonPTRS(rng, d.lambda)
	}
}

// poissonKnuth multiplies uniforms until the product falls to the
// threshold l = exp(−λ).
func poissonKnuth(rng *rand.Rand, l float64) int {
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements W. Hörmann, "The transformed rejection method for
// generating Poisson random variables", Insurance: Mathematics and Economics
// 12 (1993). Valid for lambda >= 10; we use it from 30 up.
func poissonPTRS(rng *rand.Rand, lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-logGamma(k+1) {
			return int(k)
		}
	}
}

func logGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. If all
// weights are zero it returns a uniform draw.
func Categorical(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SystematicResample returns n indices drawn by systematic (low-variance)
// resampling from the given weights: a single uniform offset partitions the
// cumulative weight into n equal strata. This is the resampler used by the
// particle filter (Section III-B step (4)).
func SystematicResample(rng *rand.Rand, weights []float64, n int) []int {
	m := len(weights)
	if m == 0 || n <= 0 {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	out := make([]int, n)
	if total <= 0 {
		for i := range out {
			out[i] = rng.Intn(m)
		}
		return out
	}
	step := total / float64(n)
	u := rng.Float64() * step
	acc := 0.0
	j := 0
	for i := 0; i < m && j < n; i++ {
		w := weights[i]
		if w > 0 {
			acc += w
		}
		for j < n && u <= acc {
			out[j] = i
			j++
			u += step
		}
	}
	for ; j < n; j++ { // numerical tail guard
		out[j] = m - 1
	}
	return out
}
