package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// checkLanes runs Softplus on xs and requires every lane to match the
// scalar reference bit for bit.
func checkLanes(t *testing.T, xs []float64) {
	t.Helper()
	out := make([]float64, len(xs))
	Softplus(out, xs)
	for i, x := range xs {
		want := Scalar(x)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("lane %d: softplus(%v) = %v (%#x), scalar gives %v (%#x)",
				i, x, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
}

// TestSoftplusBoundaries hits every branch boundary of the scalar
// reference and of the underlying exp/log1p implementations: the ±35
// clamps, the log1p Small (2⁻²⁹) and √2−1 thresholds, the mantissa
// threshold where log1p renormalizes and increments k, the iu==0
// quadratic shortcut around x ≈ 0, and the envelope edges where the
// rescue pass takes over from the vector kernel.
func TestSoftplusBoundaries(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		35, math.Nextafter(35, 36), math.Nextafter(35, 0),
		-35, math.Nextafter(-35, -36), math.Nextafter(-35, 0),
		// e crosses Small = 2**-29 near x = -29 ln 2.
		-29 * math.Ln2, math.Nextafter(-29*math.Ln2, -30), -20.101268, -20.101269,
		// e crosses Sqrt2M1 near ln(√2−1).
		math.Log(math.Sqrt2 - 1), -0.8813735870195429, -0.8813735870195431,
		// u = 1+e crosses √2 (k increments) near ln(√2−1) from above.
		-0.88, -0.8813, -0.882,
		// iu==0 shortcut: u = 1+e lands exactly on a power of two.
		math.Log(1.0), // e = 1, u = 2
		6.9e-16, -6.9e-16, 1e-300, -1e-300,
		// Envelope edges: the rescue pass must splice seamlessly.
		minVecArg, math.Nextafter(minVecArg, 0), math.Nextafter(minVecArg, -709),
		maxVecArg, math.Nextafter(maxVecArg, 0), math.Nextafter(maxVecArg, 710),
		-700, -708.3, -708.5, -710, -745, -746, -1000,
		700, 708, 709.4, 709.8, 710, 1000,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e308, -1e308, 4.9e-324, -4.9e-324,
	}
	checkLanes(t, xs)
}

// TestSoftplusSweep covers the working range of the device model densely
// and the full finite double range coarsely.
func TestSoftplusSweep(t *testing.T) {
	var xs []float64
	for x := -50.0; x <= 50.0; x += 0.001953125 { // exact step: 2**-9
		xs = append(xs, x)
	}
	for x := -800.0; x <= 800.0; x += 0.8046875 {
		xs = append(xs, x)
	}
	for e := -300; e <= 300; e += 3 {
		xs = append(xs, math.Ldexp(1.1, e), -math.Ldexp(1.3, e))
	}
	checkLanes(t, xs)
}

// TestSoftplusTails pins the scalar tail: every length mod 4 must agree.
func TestSoftplusTails(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 9; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 80*rng.Float64() - 40
		}
		checkLanes(t, xs)
	}
}

// TestSoftplusRescueAtEveryLane places one out-of-envelope value — beyond
// either bound, ±Inf or NaN — at every lane of every call length from 1 to
// 9 among in-envelope neighbours: the kernel must report it, whichever quad
// and lane it sits in, so that the rescue pass overwrites it, and must
// report nothing for the same call without it.
func TestSoftplusRescueAtEveryLane(t *testing.T) {
	if Enabled() {
		clean := []float64{-707.9, 708.9, 0, -35, 35, 1, -1, 20}
		if spAVX2(&make([]float64, 8)[0], &clean[0], 8) {
			t.Fatal("kernel reported a rescue for in-envelope lanes")
		}
	}
	rng := rand.New(rand.NewSource(13))
	outside := []float64{
		-710, -1000, 709.5, 1000, math.Nextafter(minVecArg, -709), minVecArg, maxVecArg,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	}
	for n := 1; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for _, v := range outside {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = 80*rng.Float64() - 40
				}
				xs[pos] = v
				checkLanes(t, xs)
				if q := n &^ 3; Enabled() && q > 0 {
					if got := spAVX2(&make([]float64, q)[0], &xs[0], q); got != (pos < q) {
						t.Fatalf("n=%d: %v at lane %d: kernel reported rescue=%v", n, v, pos, got)
					}
				}
			}
		}
	}
}

// TestSoftplusForcedScalar verifies the pure-Go path against the vector
// one directly (meaningful only where the kernel is enabled).
func TestSoftplusForcedScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("vector kernel not available on this machine")
	}
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = 100*rng.NormFloat64() - 10
	}
	vec := make([]float64, len(xs))
	Softplus(vec, xs)
	useAVX2 = false
	scl := make([]float64, len(xs))
	Softplus(scl, xs)
	useAVX2 = true
	for i := range xs {
		if math.Float64bits(vec[i]) != math.Float64bits(scl[i]) {
			t.Fatalf("lane %d: vector %v != scalar %v for x=%v", i, vec[i], scl[i], xs[i])
		}
	}
}

// FuzzSoftplus feeds arbitrary bit patterns through a full quad plus a
// tail lane and requires bit-identity with the scalar reference.
func FuzzSoftplus(f *testing.F) {
	f.Add(0.3, -4.5, 40.0, -900.0, 1.25)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 708.9)
	f.Add(-708.1, 709.5, -35.0, 35.0, -20.10127)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		checkLanes(t, []float64{a, b, c, d, e})
	})
}

func BenchmarkSoftplus(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = 30*rng.NormFloat64() - 5
	}
	out := make([]float64, len(xs))
	b.Run("vector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Softplus(out, xs)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range xs {
				out[j] = Scalar(x)
			}
		}
	})
}
