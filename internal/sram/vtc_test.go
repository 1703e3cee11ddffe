package sram

import (
	"math"
	"math/rand"
	"testing"
)

// refRoot solves one grid point on its own, with no neighbour to continue
// from: bisection of the monotone residual over [−0.2, Vdd + 0.2] down to a
// 1e-15 V bracket (or to adjacent floats).
func refRoot(h *halfCell, vin, vdd float64) float64 {
	lo, hi := -0.2, vdd+0.2
	for hi-lo > 1e-15 {
		mid := 0.5 * (lo + hi)
		if !(mid > lo && mid < hi) {
			break
		}
		switch f := h.current(vin, mid); {
		case f > 0:
			hi = mid
		case f < 0:
			lo = mid
		default:
			return mid
		}
	}
	return 0.5 * (lo + hi)
}

// refCurve samples a transfer curve on the sweep's grid, every point
// solved independently by refRoot.
func refCurve(c *Cell, side Side, sh Shifts, n int, o VTCOptions) Curve {
	o.fill(c.Vdd)
	h := c.half(side, sh, &o)
	cur := Curve{In: make([]float64, n+1), Out: make([]float64, n+1)}
	for i := 0; i <= n; i++ {
		vin := c.Vdd * float64(i) / float64(n)
		cur.In[i], cur.Out[i] = vin, refRoot(&h, vin, c.Vdd)
	}
	return cur
}

// deepFailures are RTN-shifted cells far inside the read-failure region at
// 0.5 V: RTN shifts drawn from the Table I model at duty ratios 0–1, added
// to RDF shifts of 2.5σ per device. A per-point solve stopping on a
// residual threshold put their margins 14–149 mV from the exact value, and
// the last one carries a load that turns off along the grid, which leaves
// the slope from the previous point stale by three orders of magnitude.
var deepFailures = []Shifts{
	{0.010264373912329983, -0.06860262097996035, 0.4834326135944328, -0.008447643514608492, 0.015959351632257552, 0.07775949794713333},
	{0.014353688562172654, -0.003213572853266896, 0.4647229183415263, -0.023004560932899983, -0.011954778632687053, 0.06148362580579644},
	{0.12219239707714916, 0.15357501513057414, 0.48935321020107536, -0.004998844696212679, -0.13634153427148138, 0.03397473479115071},
	{0.021013261604268148, -0.02046016158540353, 0.05177585256782712, 0.40130088445822937, 0.016057447992021457, 0.043825783889004065},
	{-0.07643763570873888, -0.07895846585263991, 0.19980985340236096, 0.6034895897937038, 0.06196781260335103, 0.16912948835818567},
}

// TestMarginsMatchPerPointReference requires the continuation sweep's
// margins to equal, within 1e-9 V and with the same sign, the margins of
// curves whose every grid point is solved independently to 1e-15 V: on the
// engine's 24-point grid, at 0.3, 0.5 and 0.7 V, in read, hold and write
// mode, for seeded shifts at radius 0–6σ and for the deep failures.
func TestMarginsMatchPerPointReference(t *testing.T) {
	const grid, tol = 24, 1e-9
	for _, vdd := range []float64{0.3, 0.5, 0.7} {
		c := NewCell(vdd)
		sig := c.SigmaVth()
		rng := rand.New(rand.NewSource(11))
		shs := append([]Shifts(nil), deepFailures...)
		for k := 0; k < 48; k++ {
			var dir [NumTransistors]float64
			norm := 0.0
			for j := range dir {
				dir[j] = rng.NormFloat64()
				norm += dir[j] * dir[j]
			}
			r := 6 * float64(k) / 48 / math.Sqrt(norm)
			var sh Shifts
			for j := range sh {
				sh[j] = r * sig[j] * dir[j]
			}
			shs = append(shs, sh)
		}
		for _, mode := range []string{"read", "hold", "write"} {
			opts := &SNMOptions{GridN: grid, BisectIter: 24, Hold: mode == "hold"}
			for k, sh := range shs {
				var got, want []float64
				if mode == "write" {
					a := refCurve(c, Right, sh, grid, VTCOptions{})
					b := refCurve(c, Left, sh, grid, VTCOptions{BitLineSet: true})
					got = []float64{c.WriteMargin(sh, opts)}
					want = []float64{-noiseMarginFromCurves(a, b).Lobe2}
				} else {
					vo := VTCOptions{AccessOff: mode == "hold"}
					m := c.NoiseMargin(sh, opts)
					r := noiseMarginFromCurves(refCurve(c, Right, sh, grid, vo), refCurve(c, Left, sh, grid, vo))
					got, want = []float64{m.Lobe1, m.Lobe2}, []float64{r.Lobe1, r.Lobe2}
				}
				for j := range got {
					if math.Abs(got[j]-want[j]) > tol || (got[j] < 0) != (want[j] < 0) {
						t.Errorf("vdd %.1f %s shift %d lobe %d: margin %.15g, per-point reference %.15g (error %.3g V; shifts %v)",
							vdd, mode, k, j+1, got[j], want[j], got[j]-want[j], sh)
					}
				}
			}
		}
	}
}

// TestContinuationRecoversFromGuardViolation hands one grid point's solve
// a previous root on the wrong side of the truth. Below it, the bracket's
// upper end r(i−1) + 1 µV has the wrong sign: the solve must evaluate that
// end once its steps keep leaving through it, and widen the bracket. Above
// it, the start point and the bracket are merely loose. Each start is tried
// with an accurate carried slope, one 1000× too small (the first step flies
// out of the bracket) and none (the 10 mV probe); every one must return the
// root within the engine's evaluation cap.
func TestContinuationRecoversFromGuardViolation(t *testing.T) {
	const maxIter = 24
	c := NewCell(0.5)
	var o VTCOptions
	o.fill(c.Vdd)
	h := c.half(Right, Shifts{}, &o)
	for _, vin := range []float64{0.1, 0.2, 0.25, 0.4} {
		want := refRoot(&h, vin, c.Vdd)
		slope := (h.current(vin, want+1e-4) - h.current(vin, want-1e-4)) / 2e-4
		starts := []struct {
			name   string
			r1, r2 float64
		}{
			{"previous root 1 mV below", want - 1e-3, want + 0.02},
			{"previous roots below", want - 0.05, want - 0.03},
			{"previous roots far below", -0.15, -0.1},
			{"previous roots above", want + 0.1, want + 0.15},
		}
		for _, st := range starts {
			for _, carried := range []struct {
				name  string
				slope float64
				has   bool
			}{{"accurate slope", slope, true}, {"stale slope", slope / 1000, true}, {"no slope", 0, false}} {
				var s vtcLane
				s.begin(c.Vdd)
				s.r1, s.r2 = st.r1, st.r2
				s.slope, s.hasSlope = carried.slope, carried.has
				s.startPoint()
				for !s.done {
					s.observe(h.current(vin, s.next), maxIter)
				}
				if math.Abs(s.r1-want) > 1e-9 || s.evals >= maxIter {
					t.Errorf("vin %.2f, %s, %s: root %.12f after %d evaluations, want %.12f",
						vin, st.name, carried.name, s.r1, s.evals, want)
				}
			}
		}
	}
}
