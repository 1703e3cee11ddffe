package main

import (
	"math"
	"sort"
)

// minTailSamples is the sample count below which a p90 is not reported: a
// percentile needs at least ten samples beyond it.
const minTailSamples = 100

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 is the 90th percentile, or NaN below minTailSamples samples.
func p90(xs []float64) float64 {
	if len(xs) < minTailSamples {
		return math.NaN()
	}
	return quantile(xs, 0.9)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spread printed by compare matches the one the acceptance rule computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// CPython's formula, including its linear extrapolation when the
		// rank i·(n+1)/4 falls outside [1, n-1].
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// meanSE returns the sample mean and its standard error (NaN SE below two
// samples).
func meanSE(xs []float64) (m, se float64) {
	m = mean(xs)
	if len(xs) < 2 {
		return m, math.NaN()
	}
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	v /= float64(len(xs) - 1)
	return m, math.Sqrt(v / float64(len(xs)))
}

// toRelErr10 pools per-op (cost, relerr) pairs into the cost of one
// estimate at 10% relative error. Relative error falls as 1/sqrt(cost), so
// op i alone would need cost_i·(relerr_i/0.1)²; pooling the ops by inverse
// variance gives Σcost / Σ(0.1/relerr_i)², which is less dominated by the
// few ops with a large relerr than the plain mean of the per-op figures.
func toRelErr10(cost, relerr []float64) float64 {
	num, den := 0.0, 0.0
	for i, r := range relerr {
		num += cost[i]
		den += (0.1 / r) * (0.1 / r)
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
