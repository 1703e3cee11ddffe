package main

import (
	"math"
	"testing"
)

func TestP90NeedsHundredSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v := p90(xs); !math.IsNaN(v) {
		t.Fatalf("p90 of 99 samples = %v, want NaN (not reported)", v)
	}
	xs = append(xs, 99)
	if v := p90(xs); math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, want 89.1", v)
	}
}

// TestQuartilesMatchPython pins quartiles to CPython's
// statistics.quantiles(xs, n=4), the rule the acceptance spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestToRelErr10PoolsByInverseVariance(t *testing.T) {
	// 100 sims at 10% and 100 sims at 20%: the pooled estimate has variance
	// weight 1 + 1/4, so 200 sims buy (0.1)²/1.25 — 160 sims per 10%.
	if v := toRelErr10([]float64{100, 100}, []float64{0.1, 0.2}); math.Abs(v-160) > 1e-9 {
		t.Fatalf("toRelErr10 = %v, want 160", v)
	}
}

// TestRefSeconds: a wall time converts to reference seconds in proportion
// to calRefS over the calibration time measured after it.
func TestRefSeconds(t *testing.T) {
	ref, cal := refSeconds(0.5)
	if !(cal > 0) || math.Abs(ref*cal-0.5*calRefS) > 1e-15 {
		t.Fatalf("refSeconds(0.5) = %v with calibration %v s, want 0.5·%v/%v", ref, cal, calRefS, cal)
	}
}

func TestMeanSE(t *testing.T) {
	m, se := meanSE([]float64{1, 2, 3, 4})
	if m != 2.5 || math.Abs(se-math.Sqrt(5.0/3/4)) > 1e-12 {
		t.Fatalf("meanSE = %v, %v", m, se)
	}
	if _, se := meanSE([]float64{1}); !math.IsNaN(se) {
		t.Fatalf("SE of one sample = %v, want NaN", se)
	}
}
