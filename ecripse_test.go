package ecripse

import (
	"errors"
	"math"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cell := NewCell(VddLow)
	est := New(cell, Options{NIS: 40000})
	res, err := est.FailureProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	// Naive-MC reference at 0.5 V: ≈3.86e-3.
	if res.Estimate.P < 2.5e-3 || res.Estimate.P > 5.5e-3 {
		t.Fatalf("Pfail = %v", res.Estimate.P)
	}
	if est.Simulations() == 0 {
		t.Fatal("no simulations accounted")
	}
}

func TestPublicRTNWorseThanRDF(t *testing.T) {
	cell := NewCell(VddLow)
	est := New(cell, Options{NIS: 30000, M: 10})
	cfg := TableIRTN(cell)
	rdf, err := est.FailureProbability(2)
	if err != nil {
		t.Fatal(err)
	}
	withRTN, err := est.FailureProbabilityRTN(2, cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if withRTN.Estimate.P <= rdf.Estimate.P {
		t.Fatalf("RTN %v not worse than RDF %v", withRTN.Estimate.P, rdf.Estimate.P)
	}
}

func TestPublicDutySweep(t *testing.T) {
	cell := NewCell(VddLow)
	est := New(cell, Options{NIS: 8000, M: 5})
	cfg := TableIRTN(cell)
	pts, err := est.DutySweep(3, cfg, []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Result.Estimate.P <= 0 {
			t.Fatalf("alpha %v: zero estimate", p.Alpha)
		}
	}
}

// TestPublicNoFailureRegionIsAnError pins that a spec with no failure
// region within the search radius — hold mode at 0.7 V — reaches the
// caller as ErrNoFailureRegion, not as a zero estimate.
func TestPublicNoFailureRegionIsAnError(t *testing.T) {
	est := New(NewCell(0.7), Options{Mode: HoldFailure, NIS: 2000})
	res, err := est.FailureProbability(1)
	if !errors.Is(err, ErrNoFailureRegion) {
		t.Fatalf("err = %v (estimate %v), want ErrNoFailureRegion", err, res.Estimate)
	}
	if _, err := est.FailureProbabilityRTN(1, TableIRTN(est.cell), 0.5); !errors.Is(err, ErrNoFailureRegion) {
		t.Fatalf("RTN: err = %v, want ErrNoFailureRegion", err)
	}
	pts, err := est.DutySweep(1, TableIRTN(est.cell), []float64{0, 1})
	if !errors.Is(err, ErrNoFailureRegion) || len(pts) != 0 {
		t.Fatalf("sweep: %d points, err = %v, want none and ErrNoFailureRegion", len(pts), err)
	}
}

func TestPublicNaiveMC(t *testing.T) {
	cell := NewCell(VddLow)
	cfg := TableIRTN(cell)
	series, est := NaiveMC(cell, 4, 30000, cfg, -1)
	if est.Sims != 30000 {
		t.Fatalf("sims = %d", est.Sims)
	}
	if est.P < 1.5e-3 || est.P > 7e-3 {
		t.Fatalf("naive P = %v", est.P)
	}
	if len(series) == 0 {
		t.Fatal("no convergence series")
	}
}

func TestPublicConventional(t *testing.T) {
	cell := NewCell(VddLow)
	series, est := Conventional(cell, 5, 8000)
	if est.Sims < 8000 {
		t.Fatalf("conventional must simulate every sample: %d", est.Sims)
	}
	if est.P < 1.5e-3 || est.P > 8e-3 {
		t.Fatalf("conventional P = %v", est.P)
	}
	if len(series) == 0 {
		t.Fatal("no series")
	}
}

func TestPublicCellSurface(t *testing.T) {
	cell := NewCell(VddNominal)
	var sh Shifts
	snm := cell.ReadSNM(sh, nil)
	if snm <= 0 {
		t.Fatalf("nominal cell SNM = %v", snm)
	}
	a, b := cell.Butterfly(sh, nil)
	if len(a.In) == 0 || len(b.In) == 0 {
		t.Fatal("butterfly curves empty")
	}
	if n := len(cell.SigmaVth()); n != NumTransistors {
		t.Fatalf("sigma dim = %d", n)
	}
}

func TestPublicRTNTrace(t *testing.T) {
	cell := NewCell(VddNominal)
	cfg := TableIRTN(cell)
	trace := RTNTraceForCell(cell, cfg, 6, D1, 0.5, 1e-3, 5000)
	if len(trace) != 5000 {
		t.Fatalf("trace length %d", len(trace))
	}
	for _, v := range trace {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bad trace value %v", v)
		}
	}
}

func TestPublicTransistorIndices(t *testing.T) {
	if NumTransistors != 6 {
		t.Fatalf("NumTransistors = %d", NumTransistors)
	}
	seen := map[int]bool{L1: true, L2: true, D1: true, D2: true, A1: true, A2: true}
	if len(seen) != 6 {
		t.Fatal("transistor indices collide")
	}
}

func TestPublicStatisticalBlockade(t *testing.T) {
	cell := NewCell(VddLow)
	series, est := StatisticalBlockade(cell, 9, 30000)
	if len(series) == 0 {
		t.Fatal("no series")
	}
	// One-sided bias: may undercount but never exceed ~truth (3.9e-3).
	if est.P > 6e-3 {
		t.Fatalf("blockade overestimated: %v", est.P)
	}
	if est.P <= 0 {
		t.Fatal("blockade found nothing")
	}
	if est.Sims >= 30000+2000 {
		t.Fatal("blockade did not block anything")
	}
}

func TestPublicSubsetSimulation(t *testing.T) {
	cell := NewCell(VddLow)
	est := SubsetSimulation(cell, 11, 1200)
	const want = 3.9e-3 // naive-MC reference
	if est.P < want*0.5 || est.P > want*2 {
		t.Fatalf("subset P = %v want ~%v", est.P, want)
	}
	if est.Sims <= 0 || est.Sims > 20000 {
		t.Fatalf("sims = %d", est.Sims)
	}
}

func TestPublicCellSpec(t *testing.T) {
	// A high-beta cell via the public spec API: better read, worse sigma
	// asymmetry handled internally.
	base := NewCell(VddNominal)
	highBeta := NewCellFrom(CellSpec{DriverW: 60e-9})
	var sh Shifts
	if highBeta.ReadSNM(sh, nil) <= base.ReadSNM(sh, nil) {
		t.Fatal("beta upsizing had no effect through the public API")
	}
}

func TestPublicSeedConsistency(t *testing.T) {
	// Independent seeds must give mutually consistent estimates.
	cell := NewCell(VddLow)
	var ps, cis []float64
	for seed := int64(1); seed <= 3; seed++ {
		est := New(cell, Options{NIS: 40000})
		r, err := est.FailureProbability(seed)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, r.Estimate.P)
		cis = append(cis, r.Estimate.CI95)
	}
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			diff := ps[i] - ps[j]
			if diff < 0 {
				diff = -diff
			}
			if diff > 4*(cis[i]+cis[j]) {
				t.Fatalf("seeds disagree: %v vs %v (CIs %v, %v)", ps[i], ps[j], cis[i], cis[j])
			}
		}
	}
}

func TestPublicNewCellAt(t *testing.T) {
	hot := NewCellAt(VddNominal, 400)
	cold := NewCellAt(VddNominal, 250)
	var sh Shifts
	if hot.ReadSNM(sh, nil) >= cold.ReadSNM(sh, nil) {
		t.Fatal("temperature had no effect through the public API")
	}
}
