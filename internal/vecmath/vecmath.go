// Package vecmath provides batched math kernels for the structure-of-arrays
// hot paths: Softplus for the device layer's lane-parallel
// softplus(x) = ln(1+eˣ), and GaussLogSumExp for the proposal mixture's
// log-density, a running log-sum-exp over Gaussian components folded four
// components at a time. Every kernel is pinned bit-identical to its scalar
// reference: on AMD64 with AVX2+FMA the transcendentals replicate the exact
// operation sequence of math.Exp's FMA path and math.Log1p four lanes at a
// time, and the quadratic forms use plain packed arithmetic with no FMA
// contraction — so vectorization changes throughput and nothing else.
// Everywhere else the package degrades to the scalar loops.
package vecmath

import (
	"fmt"
	"math"
)

// Enabled reports whether the vectorized kernel is active (AVX2+FMA
// detected, or the build was pinned to GOAMD64=v3). Exposed for cost
// telemetry and tests; results are bit-identical either way.
func Enabled() bool { return useAVX2 }

// The vector kernel certifies lanes strictly inside (minVecArg, maxVecArg):
// beyond these bounds the scalar exp takes overflow/denormal/non-finite
// exits that the branch-free kernel does not model. The bounds are
// deliberately tighter than the true exits (exp overflows above ~709.78 and
// denormalizes below ~-708.39) so the envelope check stays two compares.
// NaN fails both compares and is rescued too.
const (
	minVecArg = -708.0
	maxVecArg = 709.0
)

// Softplus fills dst[i] = Scalar(src[i]) for every lane. dst must be at
// least as long as src. The results are bit-identical to the scalar loop at
// any lane count and any ISA level.
func Softplus(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	if useAVX2 {
		q := n &^ 3
		// Rescue pass: recompute the lanes outside the certified envelope,
		// which the kernel reports having seen.
		if q > 0 && spAVX2(&dst[0], &src[0], q) {
			for i, x := range src[:q] {
				if !(x > minVecArg && x < maxVecArg) {
					dst[i] = Scalar(x)
				}
			}
		}
		for i := q; i < n; i++ {
			dst[i] = Scalar(src[i])
		}
		return
	}
	for i, x := range src {
		dst[i] = Scalar(x)
	}
}

// GaussLogSumExp returns log Σ_i exp(l_i) for the component log-terms
//
//	l_i = coeffs[i] − ½·Σ_d ((x[d] − means[d·k+i])·invs[d])²,  k = len(coeffs),
//
// by the running log-sum-exp fold in component order: the first finite l
// becomes the maximum M with sum 1, a later l > M rescales the sum by
// exp(M − l) and adds 1, and any other l with l − M > −40 adds exp(l − M).
// Terms of −∞ or NaN add nothing; when no term is finite the result is −∞.
// means is the structure-of-arrays layout, one row of k entries per
// dimension; k must be a multiple of 4 (pad coeffs with −∞).
//
// The vector kernel folds whole 4-component blocks, new maxima included;
// a block it cannot fold inside the exp envelope — the one with the first
// finite term, or a maximum more than 708 nats above the last — goes
// through the scalar rule in Go, with math.Exp for its terms. Every
// operation is the scalar fold's, in its order, so the result is
// bit-identical to it at any ISA level.
func GaussLogSumExp(x, invs, means, coeffs []float64) float64 {
	k, d := len(coeffs), len(x)
	if k%4 != 0 || len(invs) < d || len(means) < d*k {
		panic(fmt.Sprintf("vecmath: GaussLogSumExp shape: %d coefficients, %d dimensions, %d scales, %d means",
			k, d, len(invs), len(means)))
	}
	maxLog := math.Inf(-1)
	sum := 0.0
	var l [4]float64 // the log-terms of the block the scalar rule folds
	nb := k / 4
	for b := 0; b < nb; b++ {
		if useAVX2 {
			b, maxLog, sum = foldAVX2(xptr(means), &coeffs[0], xptr(x), xptr(invs), d, 8*k, b, nb, maxLog, sum, &l)
			if b == nb {
				break
			}
		} else {
			for j := range l {
				q := 0.0
				for dd := 0; dd < d; dd++ {
					z := (x[dd] - means[dd*k+4*b+j]) * invs[dd]
					q += z * z
				}
				l[j] = coeffs[4*b+j] - 0.5*q
			}
		}
		// Block b holds a new running maximum the kernel cannot fold (the
		// first finite term, or one beyond the exp envelope of the last),
		// or there is no kernel.
		for _, li := range l {
			switch {
			case li > maxLog:
				if !math.IsInf(maxLog, -1) {
					sum *= math.Exp(maxLog - li)
				}
				maxLog = li
				sum++
			case li-maxLog > -40:
				sum += math.Exp(li - maxLog)
			}
		}
	}
	if math.IsInf(maxLog, -1) {
		return math.Inf(-1)
	}
	return maxLog + math.Log(sum)
}

// xptr is &v[0], or nil for an empty slice (the kernel then reads nothing
// through it: an empty x or means means zero dimensions).
func xptr(v []float64) *float64 {
	if len(v) == 0 {
		return nil
	}
	return &v[0]
}

// Scalar is the reference softplus the vector kernel is pinned against:
// ln(1+eˣ) with the same large/small-argument clamps as the device model
// (for x > 35 the +1 is far below double precision; for x < -35 the log1p
// is the identity to double precision).
func Scalar(x float64) float64 {
	switch {
	case x > 35:
		return x
	case x < -35:
		return math.Exp(x)
	default:
		return math.Log1p(math.Exp(x))
	}
}
