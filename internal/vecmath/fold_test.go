package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// foldReference is the running log-sum-exp GaussLogSumExp is pinned
// against, written as the plain per-component loop.
func foldReference(x, invs, means, coeffs []float64) float64 {
	k := len(coeffs)
	maxLog := math.Inf(-1)
	s := 0.0
	for i, c := range coeffs {
		if math.IsInf(c, -1) {
			continue
		}
		q := 0.0
		for d := range x {
			z := (x[d] - means[d*k+i]) * invs[d]
			q += z * z
		}
		l := c - 0.5*q
		switch {
		case l > maxLog:
			if !math.IsInf(maxLog, -1) {
				s *= math.Exp(maxLog - l)
			}
			maxLog = l
			s++
		case l-maxLog > -40:
			s += math.Exp(l - maxLog)
		}
	}
	if math.IsInf(maxLog, -1) {
		return math.Inf(-1)
	}
	return maxLog + math.Log(s)
}

// checkFold requires GaussLogSumExp to match the reference bit for bit,
// with the vector kernel on and off.
func checkFold(t *testing.T, x, invs, means, coeffs []float64) {
	t.Helper()
	want := foldReference(x, invs, means, coeffs)
	for _, vec := range []bool{true, false} {
		if vec && !Enabled() {
			continue
		}
		saved := useAVX2
		useAVX2 = vec
		got := GaussLogSumExp(x, invs, means, coeffs)
		useAVX2 = saved
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("vector=%v k=%d d=%d x=%v: fold %v (%#x), reference %v (%#x)",
				vec, len(coeffs), len(x), x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// randomFold draws a padded mixture of k components in d dimensions, a
// share of them dead (−∞ coefficient), and a query scaled by spread.
func randomFold(rng *rand.Rand, d, k int, spread float64) (x, invs, means, coeffs []float64) {
	kpad := (k + 3) &^ 3
	x = make([]float64, d)
	invs = make([]float64, d)
	means = make([]float64, d*kpad)
	coeffs = make([]float64, kpad)
	for dd := 0; dd < d; dd++ {
		x[dd] = spread * rng.NormFloat64()
		invs[dd] = 1 / (0.2 + rng.Float64())
		for i := 0; i < k; i++ {
			means[dd*kpad+i] = 4 * rng.NormFloat64()
		}
	}
	for i := range coeffs {
		switch {
		case i >= k, rng.Float64() < 0.1:
			coeffs[i] = math.Inf(-1)
		default:
			coeffs[i] = -3 + math.Log(rng.Float64())
		}
	}
	return x, invs, means, coeffs
}

// TestGaussLogSumExpMatchesReference covers dimensions 0–8 and mixture
// sizes across the block boundaries, from the bulk to the far tail where
// the −40 cutoff and the running rescale fire.
func TestGaussLogSumExpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 0; d <= 8; d++ {
		for _, k := range []int{0, 1, 4, 5, 8, 13, 64, 301} {
			for trial := 0; trial < 20; trial++ {
				spread := 1.0
				if trial%3 == 1 {
					spread = 20
				}
				x, invs, means, coeffs := randomFold(rng, d, k, spread)
				checkFold(t, x, invs, means, coeffs)
			}
		}
	}
}

// TestGaussLogSumExpSpecials covers the inputs with their own exits: no
// finite term, and non-finite query coordinates and means.
func TestGaussLogSumExpSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, invs, means, coeffs := randomFold(rng, 3, 16, 1)
	dead := make([]float64, len(coeffs))
	for i := range dead {
		dead[i] = math.Inf(-1)
	}
	if got := GaussLogSumExp(x, invs, means, dead); !math.IsInf(got, -1) {
		t.Fatalf("no finite term: got %v, want -Inf", got)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for d := range x {
			xv := append([]float64(nil), x...)
			xv[d] = v
			checkFold(t, xv, invs, means, coeffs)
		}
		for i := 0; i < 16; i += 5 {
			mv := append([]float64(nil), means...)
			mv[i] = v
			checkFold(t, x, invs, mv, coeffs)
		}
	}
}

// foldOneLane runs the fold kernel on a single block whose only finite
// log-term, in the given lane, is arg, against a maximum of 0 and a zero
// sum: what it returns is that lane's contribution, exp(arg) for a kept
// argument and +0 for a dropped one.
func foldOneLane(t *testing.T, lane int, arg float64) float64 {
	t.Helper()
	var means, coeffs, l [4]float64
	for i := range coeffs {
		coeffs[i] = math.Inf(-1)
	}
	coeffs[lane] = arg
	next, _, sum := foldAVX2(&means[0], &coeffs[0], nil, nil, 0, 32, 0, 1, 0, 0, &l)
	if next != 1 {
		t.Fatalf("arg %v: kernel stopped at block %d", arg, next)
	}
	return sum
}

// checkFoldExp requires the kernel's exp stage to give exactly math.Exp
// for arg at every lane position.
func checkFoldExp(t *testing.T, arg float64) {
	t.Helper()
	want := math.Exp(arg)
	for lane := 0; lane < 4; lane++ {
		if got := foldOneLane(t, lane, arg); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lane %d: exp(%v) = %v (%#x), math.Exp gives %v (%#x)",
				lane, arg, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestExpSweep pins the fold kernel's exp stage (EXPBODY, shared with the
// softplus kernel) to math.Exp bit for bit, densely over the whole range
// it is ever given: log-terms (−40, 0] below the running maximum.
func TestExpSweep(t *testing.T) {
	if !Enabled() {
		t.Skip("vector kernel not available on this machine")
	}
	for x := -40.0 + 0.0009765625; x <= 0; x += 0.0009765625 { // exact step: 2**-10
		checkFoldExp(t, x)
	}
}

// TestExpBoundaries covers the edges of the kept range: arguments just
// inside the −40 cutoff and at ±0 must give math.Exp's bits, while the
// cutoff itself, anything below it, −Inf and NaN must add exactly +0.
func TestExpBoundaries(t *testing.T) {
	if !Enabled() {
		t.Skip("vector kernel not available on this machine")
	}
	for _, x := range []float64{
		math.Nextafter(-40, 0), -39.999999, -math.Ln2, -1, -6.9e-16, -1e-300,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
	} {
		checkFoldExp(t, x)
	}
	for _, x := range []float64{-40, math.Nextafter(-40, -41), -708.5, -1e300, math.Inf(-1), math.NaN()} {
		for lane := 0; lane < 4; lane++ {
			if got := foldOneLane(t, lane, x); math.Float64bits(got) != 0 {
				t.Fatalf("lane %d: dropped argument %v added %v (%#x), want +0", lane, x, got, math.Float64bits(got))
			}
		}
	}
}

// TestFoldKernelNewMaximum drives the kernel through blocks that hold new
// maxima: folded in the kernel when every rescale argument lies inside the
// envelope, handed back (with the block's log-terms) when one does not.
// The maximum and sum it returns must be the scalar rule's bit for bit.
func TestFoldKernelNewMaximum(t *testing.T) {
	if !Enabled() {
		t.Skip("vector kernel not available on this machine")
	}
	inf := math.Inf(-1)
	cases := []struct {
		maxLog, sum float64
		l           [4]float64
		stop        bool
	}{
		{-5, 2.5, [4]float64{-7, -1, -3, 0.5}, false},         // two new maxima
		{-5, 2.5, [4]float64{-4, -4, -4.5, -3}, false},        // a tie is no new maximum
		{-5, 1, [4]float64{math.NaN(), -2, inf, -50}, false},  // NaN and −∞ add nothing
		{-5, 2.5, [4]float64{-7, math.NaN(), -1, 0.5}, false}, // a NaN never becomes the maximum,
		{-5, 2.5, [4]float64{-1, -3, math.NaN(), 0.5}, false}, // whichever lane it sits in
		{-5, 2.5, [4]float64{-1, 0.5, -2, math.NaN()}, false},
		{0, 1, [4]float64{math.Copysign(0, -1), 0.5, 0, -0.25}, false}, // signed zeros tie
		{0, 1, [4]float64{-1, 700, -0.5, 707.9}, false},                // rescales just inside the envelope
		{0, 1, [4]float64{-1, 708.5, 0, 0}, true},                      // one outside: back to Go
		{inf, 0, [4]float64{inf, -3, -2, math.NaN()}, true},            // the first finite term
		{-3, 1.5, [4]float64{-45, -43.1, -42.9, -3}, false},            // the −40 cutoff, no new maximum
	}
	for _, tc := range cases {
		var means [4]float64
		coeffs := tc.l
		var l [4]float64
		next, maxLog, sum := foldAVX2(&means[0], &coeffs[0], nil, nil, 0, 32, 0, 1, tc.maxLog, tc.sum, &l)
		if tc.stop {
			same := next == 0 && maxLog == tc.maxLog && sum == tc.sum
			for i := range l {
				same = same && math.Float64bits(l[i]) == math.Float64bits(tc.l[i])
			}
			if !same {
				t.Fatalf("%v from (%v, %v): got next %d l %v max %v sum %v, want a stop at block 0",
					tc.l, tc.maxLog, tc.sum, next, l, maxLog, sum)
			}
			continue
		}
		wantMax, wantSum := tc.maxLog, tc.sum
		for _, li := range tc.l {
			switch {
			case li > wantMax:
				wantSum *= math.Exp(wantMax - li)
				wantMax = li
				wantSum++
			case li-wantMax > -40:
				wantSum += math.Exp(li - wantMax)
			}
		}
		if next != 1 || math.Float64bits(maxLog) != math.Float64bits(wantMax) || math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Fatalf("%v from (%v, %v): got next %d max %v sum %v (%#x), want max %v sum %v (%#x)",
				tc.l, tc.maxLog, tc.sum, next, maxLog, sum, math.Float64bits(sum), wantMax, wantSum, math.Float64bits(wantSum))
		}
	}
}
