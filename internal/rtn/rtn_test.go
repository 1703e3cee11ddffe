package rtn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecripse/internal/randx"
	"ecripse/internal/sram"
)

func cfgAndCell() (Config, *sram.Cell) {
	cell := sram.NewCell(0.7)
	return TableIConfig(cell), cell
}

func TestTimeConstantsEndpoints(t *testing.T) {
	cfg, _ := cfgAndCell()
	tc, te := cfg.TimeConstants(1)
	if tc != cfg.TauOnC || te != cfg.TauOnE {
		t.Fatalf("duty=1: tc=%v te=%v", tc, te)
	}
	tc, te = cfg.TimeConstants(0)
	if tc != cfg.TauOffC || te != cfg.TauOffE {
		t.Fatalf("duty=0: tc=%v te=%v", tc, te)
	}
}

func TestOccupancyTableIValues(t *testing.T) {
	cfg, _ := cfgAndCell()
	// duty 0: 0.12/(0.12+0.1) = 0.5454…
	if got := cfg.Occupancy(0); math.Abs(got-0.12/0.22) > 1e-12 {
		t.Fatalf("occ(0) = %v", got)
	}
	// duty 1: 0.01/(0.01+1.2) = 0.008264…
	if got := cfg.Occupancy(1); math.Abs(got-0.01/1.21) > 1e-12 {
		t.Fatalf("occ(1) = %v", got)
	}
	// duty 0.5: 0.065/(0.065+0.65) = 0.0909…
	if got := cfg.Occupancy(0.5); math.Abs(got-0.065/0.715) > 1e-12 {
		t.Fatalf("occ(0.5) = %v", got)
	}
}

func TestOccupancyMonotoneInDuty(t *testing.T) {
	// With Table I constants, more ON time means lower occupancy.
	cfg, _ := cfgAndCell()
	prev := math.Inf(1)
	for d := 0.0; d <= 1.0001; d += 0.05 {
		occ := cfg.Occupancy(math.Min(d, 1))
		if occ > prev {
			t.Fatalf("occupancy not decreasing at duty %v", d)
		}
		prev = occ
	}
}

func TestDeviceDutyMirrorSymmetry(t *testing.T) {
	cfg, _ := cfgAndCell()
	// Mirror pairs under alpha -> 1-alpha: D1<->D2, L1<->L2, A1<->A2.
	pairs := [][2]int{{sram.D1, sram.D2}, {sram.L1, sram.L2}, {sram.A1, sram.A2}}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.8, 1} {
		for _, p := range pairs {
			a := cfg.DeviceDuty(p[0], alpha)
			b := cfg.DeviceDuty(p[1], 1-alpha)
			if math.Abs(a-b) > 1e-15 {
				t.Fatalf("mirror broken: duty(%d,%v)=%v duty(%d,%v)=%v", p[0], alpha, a, p[1], 1-alpha, b)
			}
		}
	}
}

func TestDeviceDutyPanics(t *testing.T) {
	cfg, _ := cfgAndCell()
	for _, fn := range []func(){
		func() { cfg.DeviceDuty(sram.D1, -0.1) },
		func() { cfg.DeviceDuty(99, 0.5) },
		func() { cfg.TimeConstants(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMeanTrapsSmallestTransistor(t *testing.T) {
	// Paper: λ = 4e-3 nm⁻² means the 30nm×16nm transistor holds 1.92
	// defects on average.
	cfg, cell := cfgAndCell()
	s := NewSampler(cell, cfg, 0.5)
	if got := s.MeanTraps(sram.D1); math.Abs(got-1.92) > 1e-9 {
		t.Fatalf("driver mean traps = %v", got)
	}
	if got := s.MeanTraps(sram.L1); math.Abs(got-3.84) > 1e-9 {
		t.Fatalf("load mean traps = %v", got)
	}
}

func TestTrapAmplitudeMagnitude(t *testing.T) {
	// q/(Cox·L·W) for the 16x30 nm NMOS with tox=0.95nm is ≈ 9.2 mV,
	// times the calibration factor.
	cfg, cell := cfgAndCell()
	s := NewSampler(cell, cfg, 0.5)
	want := cell.CalK * AmpBoost * 9.18e-3
	if got := s.TrapAmplitude(sram.D1); math.Abs(got-want) > 6e-4 {
		t.Fatalf("driver trap amplitude = %v want ~%v", got, want)
	}
	// Load is twice as wide: half the amplitude.
	if got := s.TrapAmplitude(sram.L1); math.Abs(got-want/2) > 3e-4 {
		t.Fatalf("load trap amplitude = %v", got)
	}
}

func TestSampleMomentsMatchAnalytic(t *testing.T) {
	cfg, cell := cfgAndCell()
	s := NewSampler(cell, cfg, 0.3)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var sum, sum2 [sram.NumTransistors]float64
	for i := 0; i < n; i++ {
		sh := s.Sample(rng)
		for j, v := range sh {
			sum[j] += v
			sum2[j] += v * v
		}
	}
	mean := s.MeanShift()
	std := s.StdShift()
	for j := 0; j < sram.NumTransistors; j++ {
		m := sum[j] / n
		sd := math.Sqrt(sum2[j]/n - m*m)
		if math.Abs(m-mean[j]) > 5e-4 {
			t.Fatalf("device %d mean %v want %v", j, m, mean[j])
		}
		if math.Abs(sd-std[j]) > 1e-3 {
			t.Fatalf("device %d std %v want %v", j, sd, std[j])
		}
	}
}

// TestSampleMatchesPerDrawPoisson: Sample's counts, drawn through the
// sampler's prepared PoissonDist per device, equal a per-draw randx.Poisson
// of the same means from the same rng state.
func TestSampleMatchesPerDrawPoisson(t *testing.T) {
	cell := sram.NewCell(0.5)
	for _, cfg := range []Config{TableIConfig(cell), {Lambda: 4e18, TauOnE: 1.2, TauOffE: 0.1, TauOnC: 0.01, TauOffC: 0.12, AmpScale: 1, IncludeAccess: true, AccessDuty: 0.5}} {
		for _, alpha := range []float64{0, 0.3, 1} {
			s := NewSampler(cell, cfg, alpha)
			got := rand.New(rand.NewSource(23))
			want := rand.New(rand.NewSource(23))
			for k := 0; k < 2000; k++ {
				sh := s.Sample(got)
				for i := range sh {
					n := randx.Poisson(want, s.mean[i])
					if sh[i] != s.amp[i]*float64(n) {
						t.Fatalf("alpha=%v draw %d device %d: shift %g, per-draw Poisson gives %g",
							alpha, k, i, sh[i], s.amp[i]*float64(n))
					}
				}
			}
		}
	}
}

func TestSampleNonNegative(t *testing.T) {
	// RTN shifts are one-sided: traps only weaken devices.
	cfg, cell := cfgAndCell()
	s := NewSampler(cell, cfg, 0.9)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		for _, v := range s.Sample(rng) {
			if v < 0 {
				t.Fatal("negative RTN shift")
			}
		}
	}
}

func TestAccessDutyZeroMeansMaxOccupancy(t *testing.T) {
	cfg, cell := cfgAndCell()
	s := NewSampler(cell, cfg, 0.5)
	if got, want := s.Occupancy(sram.A1), cfg.Occupancy(0); got != want {
		t.Fatalf("access occupancy = %v want %v", got, want)
	}
}

func TestAlphaSymmetryOfSampler(t *testing.T) {
	cfg, cell := cfgAndCell()
	a := NewSampler(cell, cfg, 0.2)
	b := NewSampler(cell, cfg, 0.8)
	// Mirrored devices swap their means.
	if math.Abs(a.MeanShift()[sram.D1]-b.MeanShift()[sram.D2]) > 1e-15 {
		t.Fatal("mean shift not mirror symmetric")
	}
	if math.Abs(a.MeanShift()[sram.L2]-b.MeanShift()[sram.L1]) > 1e-15 {
		t.Fatal("load mean shift not mirror symmetric")
	}
}

func TestTraceStationaryOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Trap{TauC: 0.12, TauE: 0.1, Amp: 1}
	// Physical stationary occupancy: dwell-time weighted.
	occ := tr.TauE / (tr.TauC + tr.TauE)
	trace := Trace(rng, []Trap{tr}, 0.001, 2_000_000)
	frac := 0.0
	for _, v := range trace {
		if v > 0.5 {
			frac++
		}
	}
	frac /= float64(len(trace))
	if math.Abs(frac-occ) > 0.02 {
		t.Fatalf("trace occupancy %v want %v", frac, occ)
	}
}

func TestTraceTwoLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Trap{TauC: 0.1, TauE: 0.1, Amp: 0.0092}
	trace := Trace(rng, []Trap{tr}, 0.01, 10000)
	for _, v := range trace {
		if v != 0 && math.Abs(v-0.0092) > 1e-15 {
			t.Fatalf("unexpected trace level %v", v)
		}
	}
}

func TestTraceSumsTraps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traps := []Trap{
		{TauC: 0.05, TauE: 0.1, Amp: 1},
		{TauC: 0.2, TauE: 0.05, Amp: 2},
	}
	trace := Trace(rng, traps, 0.005, 50000)
	seen := map[float64]bool{}
	for _, v := range trace {
		seen[v] = true
		if v < 0 || v > 3 {
			t.Fatalf("trace out of range: %v", v)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("expected multiple levels, saw %v", seen)
	}
}

func TestCellTrapsCount(t *testing.T) {
	cfg, cell := cfgAndCell()
	s := NewSampler(cell, cfg, 0.5)
	rng := rand.New(rand.NewSource(6))
	total := 0
	const n = 20000
	for i := 0; i < n; i++ {
		total += len(s.CellTraps(rng, sram.D1))
	}
	mean := float64(total) / n
	if math.Abs(mean-1.92) > 0.05 {
		t.Fatalf("mean trap count %v want 1.92", mean)
	}
}

// Property: occupancy is always a probability.
func TestPropertyOccupancyInUnitInterval(t *testing.T) {
	cfg, _ := cfgAndCell()
	f := func(d uint8) bool {
		duty := float64(d) / 255
		occ := cfg.Occupancy(duty)
		return occ >= 0 && occ <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialAmplitudeMoments(t *testing.T) {
	cfg, cell := cfgAndCell()
	cfg.ExponentialAmps = true
	s := NewSampler(cell, cfg, 0.3)
	rng := rand.New(rand.NewSource(21))
	const n = 300000
	var sum, sum2 float64
	tr := sram.D1
	for i := 0; i < n; i++ {
		v := s.Sample(rng)[tr]
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-s.MeanShift()[tr]) > 2e-3*s.MeanShift()[tr]+2e-4 {
		t.Fatalf("mean %v want %v", mean, s.MeanShift()[tr])
	}
	if math.Abs(sd-s.StdShift()[tr]) > 0.02*s.StdShift()[tr] {
		t.Fatalf("std %v want %v", sd, s.StdShift()[tr])
	}
}

func TestExponentialAmplitudesWidenDistribution(t *testing.T) {
	cfg, cell := cfgAndCell()
	fixed := NewSampler(cell, cfg, 0.3)
	cfg.ExponentialAmps = true
	exp := NewSampler(cell, cfg, 0.3)
	if exp.MeanShift() != fixed.MeanShift() {
		t.Fatal("mean shift must not change")
	}
	if exp.StdShift()[sram.D1] <= fixed.StdShift()[sram.D1] {
		t.Fatal("exponential amplitudes must widen the distribution")
	}
}
