package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// Reference values computed by large naive Monte Carlo runs (see
// EXPERIMENTS.md): at Vdd = 0.5 V the RDF-only failure probability is
// ≈ 3.86e-3 (193/50k and consistent 400k runs), and with RTN at α = 0.3 it
// is ≈ 1.57e-2 (1879/120k).
const (
	refRDF05 = 3.86e-3
	refRTN05 = 1.57e-2
)

func TestOptionsFillDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.Particles != 40 || o.Filters != 2 || o.PFIters != 10 {
		t.Fatalf("stage-1 defaults: %+v", o)
	}
	if o.PolyDegree != 4 || o.NIS != 20000 || o.M != 20 || o.Rho != 0.1 {
		t.Fatalf("stage-2 defaults: %+v", o)
	}
}

func TestRDFOnlyMatchesNaiveReference(t *testing.T) {
	cell := sram.NewCell(0.5)
	rng := rand.New(rand.NewSource(42))
	res := mustRDFOnly(t, rng, cell, Options{NIS: 120000})
	p := res.Estimate.P
	if p < refRDF05*0.7 || p > refRDF05*1.3 {
		t.Fatalf("RDF-only Pfail = %v, reference %v", p, refRDF05)
	}
	// Blockade effectiveness: far fewer simulations than IS samples.
	if res.Estimate.Sims > int64(res.Estimate.N/10) {
		t.Fatalf("too many simulations: %d for %d samples", res.Estimate.Sims, res.Estimate.N)
	}
}

func TestRTNMatchesNaiveReference(t *testing.T) {
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	rng := rand.New(rand.NewSource(43))
	eng := NewEngine(cell, nil, Options{NIS: 40000, M: 10})
	res := mustRun(t, eng, rng, rtn.NewSampler(cell, cfg, 0.3))
	p := res.Estimate.P
	if p < refRTN05*0.7 || p > refRTN05*1.3 {
		t.Fatalf("RTN Pfail = %v, reference %v", p, refRTN05)
	}
}

func TestRTNWorsensFailureProbability(t *testing.T) {
	// The paper's headline: ignoring RTN is optimistic by severalfold.
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	rng := rand.New(rand.NewSource(44))
	eng := NewEngine(cell, nil, Options{NIS: 60000, M: 10})
	rdf := mustRun(t, eng, rng, nil)
	rtnRes := mustRun(t, eng, rng, rtn.NewSampler(cell, cfg, 0.5))
	if rtnRes.Estimate.P < 1.5*rdf.Estimate.P {
		t.Fatalf("RTN-aware %v not clearly above RDF-only %v", rtnRes.Estimate.P, rdf.Estimate.P)
	}
}

func TestSharedInitializationSavesSims(t *testing.T) {
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	rng := rand.New(rand.NewSource(45))
	eng := NewEngine(cell, nil, Options{NIS: 5000, M: 5})
	first := mustRun(t, eng, rng, rtn.NewSampler(cell, cfg, 0.3))
	second := mustRun(t, eng, rng, rtn.NewSampler(cell, cfg, 0.5))
	// The second bias point reuses boundary particles and the trained
	// classifier (the Fig. 7(b) observation).
	if second.Estimate.Sims >= first.Estimate.Sims {
		t.Fatalf("no reuse saving: first %d, second %d", first.Estimate.Sims, second.Estimate.Sims)
	}
	if eng.Initial() == nil {
		t.Fatal("initial particles missing after runs")
	}
}

// mustRun is Engine.Run for a spec that has a failure region: any error
// fails the test.
func mustRun(t testing.TB, eng *Engine, rng *rand.Rand, sampler *rtn.Sampler) Result {
	t.Helper()
	res, err := eng.Run(rng, sampler)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustRDFOnly is RDFOnly for a spec that has a failure region.
func mustRDFOnly(t testing.TB, rng *rand.Rand, cell *sram.Cell, opts Options) Result {
	t.Helper()
	res, err := RDFOnly(rng, cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNoFailureRegionIsAnError: when no direction fails within RMax, the
// run stops after the ring probe (every direction at RMax plus the origin)
// with an ErrNoFailureRegion error naming RMax, the directions and the
// simulations spent, instead of reporting an estimate of 0. Nothing is
// trained or sampled, and a second run on the engine spends nothing more.
func TestNoFailureRegionIsAnError(t *testing.T) {
	eng := NewEngine(sram.NewCell(0.7), nil, Options{RMax: 1, NIS: 4000})
	rng := rand.New(rand.NewSource(1))
	res, err := eng.RunCtx(context.Background(), rng, nil)
	if !errors.Is(err, ErrNoFailureRegion) {
		t.Fatalf("err = %v, want ErrNoFailureRegion (result %+v)", err, res.Estimate)
	}
	probe := int64(eng.Opts.Directions + 1)
	for _, want := range []string{"RMax 1", "256 directions", "257 simulations"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if res.InitSims != probe || res.Estimate.Sims != probe || eng.Counter.Count() != probe {
		t.Fatalf("spent init %d, run %d, counter %d simulations; want the %d-point ring probe only",
			res.InitSims, res.Estimate.Sims, eng.Counter.Count(), probe)
	}
	if res.WarmupSims != 0 || res.Stage1Sims != 0 || res.Stage2Sims != 0 || len(res.Series) != 0 || eng.Initial() != nil {
		t.Fatalf("trained or sampled after an empty boundary search: %+v", res)
	}
	again, err := eng.RunCtx(context.Background(), rng, nil)
	if !errors.Is(err, ErrNoFailureRegion) || again.Estimate.Sims != 0 || eng.Counter.Count() != probe {
		t.Fatalf("second run: err %v, %d sims (counter %d); want the same error and no simulations",
			err, again.Estimate.Sims, eng.Counter.Count())
	}
}

func TestSetInitialSkipsBoundarySearch(t *testing.T) {
	cell := sram.NewCell(0.5)
	rng := rand.New(rand.NewSource(46))
	a := NewEngine(cell, nil, Options{NIS: 2000})
	a.Init(rng)
	b := NewEngine(cell, nil, Options{NIS: 2000})
	b.SetInitial(a.Initial())
	before := b.Counter.Count()
	b.Init(rng)
	// SetInitial short-circuits Init's boundary search entirely.
	if got := b.Counter.Count() - before; got > int64(b.Opts.WarmupTrain) {
		t.Fatalf("boundary search ran despite SetInitial: %d sims", got)
	}
}

func TestDutySweepShape(t *testing.T) {
	// Min near alpha=0.5 and bilateral symmetry (coarse, 3 points).
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	rng := rand.New(rand.NewSource(47))
	pts, err := DutySweep(rng, cell, cfg, []float64{0, 0.5, 1}, Options{NIS: 40000, M: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	p0, p5, p1 := pts[0].Result.Estimate.P, pts[1].Result.Estimate.P, pts[2].Result.Estimate.P
	if !(p5 < p0 && p5 < p1) {
		t.Fatalf("duty minimum not at 0.5: %v %v %v", p0, p5, p1)
	}
	if r := p0 / p1; r < 0.4 || r > 2.5 {
		t.Fatalf("bilateral symmetry broken: P(0)=%v P(1)=%v", p0, p1)
	}
}

func TestNoClassifierAgreesWithBlockade(t *testing.T) {
	cell := sram.NewCell(0.5)
	rngA := rand.New(rand.NewSource(48))
	withC := mustRDFOnly(t, rngA, cell, Options{NIS: 60000})
	rngB := rand.New(rand.NewSource(48))
	without := mustRDFOnly(t, rngB, cell, Options{NIS: 20000, NoClassifier: true})
	// Both must agree within generous combined confidence bounds.
	diff := math.Abs(withC.Estimate.P - without.Estimate.P)
	bound := 3 * (withC.Estimate.CI95 + without.Estimate.CI95)
	if diff > bound {
		t.Fatalf("blockade changed the estimate: %v vs %v (bound %v)",
			withC.Estimate.P, without.Estimate.P, bound)
	}
	if without.Estimate.Sims < int64(20000) {
		t.Fatalf("NoClassifier must simulate every IS sample: %d", without.Estimate.Sims)
	}
}

func TestConvergenceSeriesRecorded(t *testing.T) {
	cell := sram.NewCell(0.5)
	rng := rand.New(rand.NewSource(49))
	res := mustRDFOnly(t, rng, cell, Options{NIS: 20000, RecordEvery: 50})
	if len(res.Series) < 5 {
		t.Fatalf("series too short: %d", len(res.Series))
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].Sims < res.Series[i-1].Sims {
			t.Fatal("series sims not monotone")
		}
	}
	if res.Series.Final().P != res.Estimate.P {
		t.Fatal("final series point disagrees with estimate")
	}
}

func TestResultString(t *testing.T) {
	r := Result{InitSims: 1, WarmupSims: 2, Stage1Sims: 3, Stage2Sims: 4}
	s := r.String()
	for _, want := range []string{"init=1", "warmup=2", "stage1=3", "stage2=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestLaneUtilizationReported checks the derived utilization and its
// String rendering.
func TestLaneUtilizationReported(t *testing.T) {
	r := Result{LaneSlots: 200, LaneOccupied: 150}
	if u := r.LaneUtilization(); u != 0.75 {
		t.Fatalf("utilization = %v, want 0.75", u)
	}
	if s := r.String(); !strings.Contains(s, "lanes: 75% occupied") {
		t.Fatalf("String() = %q, missing lane utilization", s)
	}
	if u := (Result{}).LaneUtilization(); u != 0 {
		t.Fatalf("empty utilization = %v", u)
	}
}

func TestEngineSigmaMatchesCell(t *testing.T) {
	cell := sram.NewCell(0.7)
	eng := NewEngine(cell, nil, Options{})
	sig := eng.Sigma()
	want := cell.SigmaVth()
	for i := range sig {
		if sig[i] != want[i] {
			t.Fatalf("sigma mismatch at %d", i)
		}
	}
	// Returned slice must be a copy.
	sig[0] = 999
	if eng.Sigma()[0] == 999 {
		t.Fatal("Sigma leaked internal state")
	}
}

func TestSharedCounterAccounting(t *testing.T) {
	cell := sram.NewCell(0.5)
	c := &montecarlo.Counter{}
	rng := rand.New(rand.NewSource(50))
	eng := NewEngine(cell, c, Options{NIS: 2000})
	res := mustRun(t, eng, rng, nil)
	if c.Count() != res.Estimate.Sims {
		t.Fatalf("counter %d vs result %d", c.Count(), res.Estimate.Sims)
	}
}

func TestWriteFailureModeMatchesNaive(t *testing.T) {
	// Naive write-failure MC at 0.5 V gives ≈8.7e-3 (523/60k).
	cell := sram.NewCell(0.5)
	rng := rand.New(rand.NewSource(51))
	res := mustRDFOnly(t, rng, cell, Options{NIS: 40000, Mode: WriteFailure})
	const ref = 8.7e-3
	if res.Estimate.P < ref*0.7 || res.Estimate.P > ref*1.3 {
		t.Fatalf("write Pfail = %v, reference %v", res.Estimate.P, ref)
	}
}

func TestFailureModeOrdering(t *testing.T) {
	// At this design point reads are the dominant static failure mode at
	// nominal supply: hold failures must be rarer than read failures.
	cell := sram.NewCell(0.5)
	read := mustRDFOnly(t, rand.New(rand.NewSource(52)), cell, Options{NIS: 30000})
	hold := mustRDFOnly(t, rand.New(rand.NewSource(53)), cell, Options{NIS: 30000, Mode: HoldFailure})
	if hold.Estimate.P >= read.Estimate.P {
		t.Fatalf("hold Pfail %v not rarer than read %v", hold.Estimate.P, read.Estimate.P)
	}
}

func TestFailureModeString(t *testing.T) {
	if ReadFailure.String() != "read" || WriteFailure.String() != "write" || HoldFailure.String() != "hold" {
		t.Fatal("FailureMode.String broken")
	}
}

func TestCovarianceIdentityMatchesDefault(t *testing.T) {
	// A diagonal covariance diag(sigma^2) must reproduce the default flow.
	cell := sram.NewCell(0.5)
	sig := cell.SigmaVth()
	cov := linalg.NewMatrix(sram.NumTransistors, sram.NumTransistors)
	for i := 0; i < sram.NumTransistors; i++ {
		cov.Set(i, i, sig[i]*sig[i])
	}
	a := mustRDFOnly(t, rand.New(rand.NewSource(60)), cell, Options{NIS: 40000})
	b := mustRDFOnly(t, rand.New(rand.NewSource(60)), cell, Options{NIS: 40000, Covariance: cov})
	diff := math.Abs(a.Estimate.P - b.Estimate.P)
	if diff > 3*(a.Estimate.CI95+b.Estimate.CI95) {
		t.Fatalf("diagonal covariance changed the estimate: %v vs %v", a.Estimate.P, b.Estimate.P)
	}
}

func TestCovarianceCorrelationChangesPfail(t *testing.T) {
	// Strong positive correlation between all devices means common-mode Vth
	// shifts: mismatch (which drives failure) shrinks, so Pfail must drop.
	cell := sram.NewCell(0.5)
	sig := cell.SigmaVth()
	const rho = 0.8
	cov := linalg.NewMatrix(sram.NumTransistors, sram.NumTransistors)
	for i := 0; i < sram.NumTransistors; i++ {
		for j := 0; j < sram.NumTransistors; j++ {
			r := rho
			if i == j {
				r = 1
			}
			cov.Set(i, j, r*sig[i]*sig[j])
		}
	}
	indep := mustRDFOnly(t, rand.New(rand.NewSource(61)), cell, Options{NIS: 40000})
	corr := mustRDFOnly(t, rand.New(rand.NewSource(61)), cell, Options{NIS: 40000, Covariance: cov})
	if corr.Estimate.P >= indep.Estimate.P {
		t.Fatalf("correlated Pfail %v not below independent %v", corr.Estimate.P, indep.Estimate.P)
	}
}

func TestCovarianceInvalidPanics(t *testing.T) {
	cell := sram.NewCell(0.5)
	bad := linalg.NewMatrix(sram.NumTransistors, sram.NumTransistors) // all zeros: not PD
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(cell, nil, Options{Covariance: bad})
}

func TestClassifiedAccounting(t *testing.T) {
	cell := sram.NewCell(0.5)
	rng := rand.New(rand.NewSource(70))
	res := mustRDFOnly(t, rng, cell, Options{NIS: 20000})
	// The blockade must answer the overwhelming majority of labels.
	if res.Classified < int64(10000) {
		t.Fatalf("classified = %d, expected most of %d samples", res.Classified, 20000)
	}
	if !strings.Contains(res.String(), "classified=") {
		t.Fatal("Result.String missing classified count")
	}
	// NoClassifier: nothing classified.
	res2 := mustRDFOnly(t, rand.New(rand.NewSource(71)), cell, Options{NIS: 3000, NoClassifier: true})
	if res2.Classified != 0 {
		t.Fatalf("NoClassifier classified = %d", res2.Classified)
	}
}

func TestRTNWithCovarianceWhitening(t *testing.T) {
	// RTN shifts must map correctly through the whitening transform: with a
	// diagonal covariance the RTN-aware estimate matches the default path.
	cell := sram.NewCell(0.5)
	sig := cell.SigmaVth()
	cov := linalg.NewMatrix(sram.NumTransistors, sram.NumTransistors)
	for i := 0; i < sram.NumTransistors; i++ {
		cov.Set(i, i, sig[i]*sig[i])
	}
	cfg := rtn.TableIConfig(cell)
	a := mustRun(t, NewEngine(cell, nil, Options{NIS: 30000, M: 10}),
		rand.New(rand.NewSource(80)), rtn.NewSampler(cell, cfg, 0.3))
	b := mustRun(t, NewEngine(cell, nil, Options{NIS: 30000, M: 10, Covariance: cov}),
		rand.New(rand.NewSource(80)), rtn.NewSampler(cell, cfg, 0.3))
	diff := math.Abs(a.Estimate.P - b.Estimate.P)
	if diff > 3*(a.Estimate.CI95+b.Estimate.CI95) {
		t.Fatalf("whitened RTN path diverged: %v vs %v", a.Estimate.P, b.Estimate.P)
	}
}
