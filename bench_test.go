package ecripse

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the ablations called out in DESIGN.md §5. The figure
// benchmarks run the Smoke-scale workloads (the command-line tools run the
// same drivers at default/full scale); custom metrics report the quantities
// the paper plots — transistor-level simulations and the estimates —
// alongside wall-clock time.
//
//	go test -bench . -benchtime 1x
//
// Micro-benchmarks for the hot kernels (indicator evaluation, device model,
// mixture density, classifier) follow at the end.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ecripse/internal/blockade"
	"ecripse/internal/core"
	"ecripse/internal/device"
	"ecripse/internal/experiments"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/randx"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
	"ecripse/internal/svm"
)

// BenchmarkTableIConditions renders the experimental-conditions table.
func BenchmarkTableIConditions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableI(io.Discard)
	}
}

// BenchmarkFig4ParticleTracking regenerates the particle-filter snapshots.
func BenchmarkFig4ParticleTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(int64(i + 1))
		if len(r.Resampled) == 0 {
			b.Fatal("no particles")
		}
	}
}

// BenchmarkFig5Butterfly regenerates the butterfly curves and margins.
func BenchmarkFig5Butterfly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5()
		if r.DefectiveSNM >= 0 {
			b.Fatal("defective cell did not fail")
		}
	}
}

// BenchmarkFig6ProposedVsConventional runs the RDF-only convergence
// comparison and reports the simulation counts of both methods.
func BenchmarkFig6ProposedVsConventional(b *testing.B) {
	var propSims, convSims, speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(int64(i+1), experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		propSims += float64(r.Proposed.Estimate.Sims)
		convSims += float64(r.Conventional.Estimate.Sims)
		speedup += r.SpeedupAtMatchedError
	}
	n := float64(b.N)
	b.ReportMetric(propSims/n, "proposed-sims")
	b.ReportMetric(convSims/n, "conventional-sims")
	b.ReportMetric(speedup/n, "speedup-at-matched-err")
}

// BenchmarkFig7ProposedVsNaive runs the RTN-aware comparison at alpha=0.3.
func BenchmarkFig7ProposedVsNaive(b *testing.B) {
	var propSims, naiveSims float64
	for i := 0; i < b.N; i++ {
		r, _, err := experiments.Fig7(int64(i+1), experiments.Smoke, 0.3, nil)
		if err != nil {
			b.Fatal(err)
		}
		propSims += float64(r.Proposed.Estimate.Sims)
		naiveSims += float64(r.Naive.Estimate.Sims)
	}
	n := float64(b.N)
	b.ReportMetric(propSims/n, "proposed-sims")
	b.ReportMetric(naiveSims/n, "naive-sims")
}

// BenchmarkFig8DutySweep runs the duty-ratio sweep and reports the paper's
// headline RTN/RDF ratio.
func BenchmarkFig8DutySweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(int64(i+1), experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		ratio += r.WorstOverRDF
	}
	b.ReportMetric(ratio/float64(b.N), "rtn-over-rdf")
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

func ablationRun(b *testing.B, opts core.Options) (sims float64, p float64) {
	b.Helper()
	cell := sram.NewCell(device.VddLow)
	var simsTotal, pTotal float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		res, err := core.RDFOnly(rng, cell, opts)
		if err != nil {
			b.Fatal(err)
		}
		simsTotal += float64(res.Estimate.Sims)
		pTotal += res.Estimate.P
	}
	return simsTotal / float64(b.N), pTotal / float64(b.N)
}

// BenchmarkAblationClassifier compares the blockade against full simulation.
func BenchmarkAblationClassifier(b *testing.B) {
	b.Run("with-classifier", func(b *testing.B) {
		sims, p := ablationRun(b, core.Options{NIS: 20000})
		b.ReportMetric(sims, "sims")
		b.ReportMetric(p, "pfail")
	})
	b.Run("no-classifier", func(b *testing.B) {
		sims, p := ablationRun(b, core.Options{NIS: 20000, NoClassifier: true})
		b.ReportMetric(sims, "sims")
		b.ReportMetric(p, "pfail")
	})
}

// BenchmarkAblationTwoStage compares the two-stage flow against the
// single-stage variant (no particle-filter refinement).
func BenchmarkAblationTwoStage(b *testing.B) {
	b.Run("two-stage", func(b *testing.B) {
		sims, p := ablationRun(b, core.Options{NIS: 20000, PFIters: 10})
		b.ReportMetric(sims, "sims")
		b.ReportMetric(p, "pfail")
	})
	b.Run("single-stage", func(b *testing.B) {
		sims, p := ablationRun(b, core.Options{NIS: 20000, PFIters: -1})
		b.ReportMetric(sims, "sims")
		b.ReportMetric(p, "pfail")
	})
}

// BenchmarkAblationMultiFilter compares the filter-ensemble sizes; a single
// filter risks collapsing onto one of the two failure lobes.
func BenchmarkAblationMultiFilter(b *testing.B) {
	for _, filters := range []int{1, 2, 4} {
		name := map[int]string{1: "filters-1", 2: "filters-2", 4: "filters-4"}[filters]
		b.Run(name, func(b *testing.B) {
			sims, p := ablationRun(b, core.Options{NIS: 20000, Filters: filters})
			b.ReportMetric(sims, "sims")
			b.ReportMetric(p, "pfail")
		})
	}
}

// BenchmarkAblationPolyDegree varies the classifier's polynomial degree
// (the paper uses 4).
func BenchmarkAblationPolyDegree(b *testing.B) {
	for _, deg := range []int{1, 2, 4} {
		name := map[int]string{1: "degree-1", 2: "degree-2", 4: "degree-4"}[deg]
		b.Run(name, func(b *testing.B) {
			sims, p := ablationRun(b, core.Options{NIS: 20000, PolyDegree: deg})
			b.ReportMetric(sims, "sims")
			b.ReportMetric(p, "pfail")
		})
	}
}

// BenchmarkAblationInitReuse measures the saving from sharing the boundary
// initialization across bias conditions (the Fig. 7(b) observation).
func BenchmarkAblationInitReuse(b *testing.B) {
	cell := sram.NewCell(device.VddLow)
	cfg := rtn.TableIConfig(cell)
	var first, second float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		eng := core.NewEngine(cell, nil, core.Options{NIS: 10000, M: 5})
		r1, err := eng.Run(rng, rtn.NewSampler(cell, cfg, 0.3))
		if err != nil {
			b.Fatal(err)
		}
		r2, err := eng.Run(rng, rtn.NewSampler(cell, cfg, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		first += float64(r1.Estimate.Sims)
		second += float64(r2.Estimate.Sims)
	}
	n := float64(b.N)
	b.ReportMetric(first/n, "first-bias-sims")
	b.ReportMetric(second/n, "second-bias-sims")
}

// BenchmarkEngineParallelism runs the BenchmarkAblationClassifier-scale
// estimate (NIS=20000 at the low supply) at several intra-job worker counts.
// The estimates are bit-identical across sub-benchmarks (asserted by
// TestRegressParallelismDeterminism); this benchmark records the wall-clock
// speedup the deterministic parallel path buys on the host. On a single-core
// runner the variants tie; bench/ records the speedup on a named host as
// core.speedup_vs_1.
func BenchmarkEngineParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			sims, p := ablationRun(b, core.Options{NIS: 20000, Parallelism: workers})
			b.ReportMetric(sims, "sims")
			b.ReportMetric(p, "pfail")
		})
	}
}

// --- Hot-kernel micro-benchmarks ----------------------------------------

// BenchmarkIndicatorEvaluation is one transistor-level simulation: the read
// noise margin of a shifted cell at estimator settings.
func BenchmarkIndicatorEvaluation(b *testing.B) {
	cell := sram.NewCell(device.VddNominal)
	opt := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	sh := sram.Shifts{0.01, -0.01, 0.02, 0, -0.01, 0.015}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cell.Fails(sh, opt)
	}
}

// BenchmarkDeviceIds is a single compact-model current evaluation.
func BenchmarkDeviceIds(b *testing.B) {
	d := device.NewDevice(device.PTM16HPNMOS(), 30e-9, 16e-9)
	b.ReportAllocs()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += d.Ids(0.7, 0.35, 0, 0)
	}
	_ = s
}

// BenchmarkGMMLogPDF evaluates the 600-component mixture density used by
// the stage-2 proposal.
func BenchmarkGMMLogPDF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	means := make([]linalg.Vector, 600)
	weights := make([]float64, 600)
	for i := range means {
		means[i] = randx.NormalVector(rng, 6).Scale(4)
		weights[i] = rng.Float64()
	}
	g := &montecarlo.GMM{Means: means, Sigma: linalg.Vector{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, Weights: weights}
	x := randx.NormalVector(rng, 6).Scale(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.LogPDF(x)
	}
}

// BenchmarkClassifierPredict is one blockade query: degree-4 polynomial
// transform of a 6-D point plus the linear score.
func BenchmarkClassifierPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pf := svm.NewPolyFeatures(6, 4, 0)
	c := svm.NewClassifier(pf, 0)
	xs := make([]linalg.Vector, 200)
	ys := make([]bool, 200)
	for i := range xs {
		xs[i] = randx.NormalVector(rng, 6).Scale(4)
		ys[i] = xs[i].Norm() > 4
	}
	c.Train(rng, xs, ys, 5)
	x := randx.NormalVector(rng, 6).Scale(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Predict(x)
	}
}

// BenchmarkPolyScore is the per-draw blockade query through a Scorer: the
// same degree-4 transform and linear score as ClassifierPredict, through
// the incremental-product program (bit-identical scores).
func BenchmarkPolyScore(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pf := svm.NewPolyFeatures(6, 4, 0)
	c := svm.NewClassifier(pf, 0)
	xs := make([]linalg.Vector, 200)
	ys := make([]bool, 200)
	for i := range xs {
		xs[i] = randx.NormalVector(rng, 6).Scale(4)
		ys[i] = xs[i].Norm() > 4
	}
	c.Train(rng, xs, ys, 5)
	s := c.NewScorer()
	x := randx.NormalVector(rng, 6).Scale(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(x)
	}
}

// BenchmarkPolyScoreBatch is the batch-scoring kernel stage 2 and the
// blockade baseline score through; ns/op is per sample.
func BenchmarkPolyScoreBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pf := svm.NewPolyFeatures(6, 4, 0)
	c := svm.NewClassifier(pf, 0)
	xs := make([]linalg.Vector, 200)
	ys := make([]bool, 200)
	for i := range xs {
		xs[i] = randx.NormalVector(rng, 6).Scale(4)
		ys[i] = xs[i].Norm() > 4
	}
	c.Train(rng, xs, ys, 5)
	s := c.NewScorer()
	const batch = 256
	probe := make([]linalg.Vector, batch)
	for i := range probe {
		probe[i] = randx.NormalVector(rng, 6).Scale(4)
	}
	out := make([]float64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		s.ScoreBatch(probe, out)
	}
}

// BenchmarkNoiseMargin is one full Seevinck margin extraction on the
// fast indicator grid (two warm-started VTC sweeps plus the rotation).
func BenchmarkNoiseMargin(b *testing.B) {
	cell := sram.NewCell(device.VddNominal)
	opt := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	sh := sram.Shifts{0.01, -0.01, 0.02, 0, -0.01, 0.015}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cell.NoiseMargin(sh, opt)
	}
}

// BenchmarkPoissonSampler draws the eq.-(10) trap counts.
func BenchmarkPoissonSampler(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	s := 0
	for i := 0; i < b.N; i++ {
		s += randx.Poisson(rng, 1.92)
	}
	_ = s
}

// BenchmarkRTNSample draws one full per-cell RTN shift vector.
func BenchmarkRTNSample(b *testing.B) {
	cell := sram.NewCell(device.VddNominal)
	sampler := rtn.NewSampler(cell, rtn.TableIConfig(cell), 0.3)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampler.Sample(rng)
	}
}

// BenchmarkBaselineStatisticalBlockade runs the reference-[12]-style
// blockade on the 0.5 V read-failure problem, for comparison with
// BenchmarkAblationClassifier (ECRIPSE's importance-sampling blockade).
func BenchmarkBaselineStatisticalBlockade(b *testing.B) {
	cell := sram.NewCell(device.VddLow)
	sigma := cell.SigmaVth()
	opt := &sram.SNMOptions{GridN: 24, BisectIter: 24}
	var sims, p float64
	for i := 0; i < b.N; i++ {
		var c montecarlo.Counter
		fails := func(x linalg.Vector) bool {
			c.Add(1)
			var sh sram.Shifts
			for j := range sh {
				sh[j] = x[j] * sigma[j]
			}
			return cell.Fails(sh, opt)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		res := blockade.Estimate(rng, sram.NumTransistors, fails, &c, 20000, &blockade.Options{TrainN: 1500})
		sims += float64(res.Estimate.Sims)
		p += res.Estimate.P
	}
	n := float64(b.N)
	b.ReportMetric(sims/n, "sims")
	b.ReportMetric(p/n, "pfail")
}

// BenchmarkBaselineSubsetSimulation runs the Au-Beck subset-simulation
// baseline on the 0.5 V read-failure problem.
func BenchmarkBaselineSubsetSimulation(b *testing.B) {
	cell := sram.NewCell(device.VddLow)
	var sims, p float64
	for i := 0; i < b.N; i++ {
		est := SubsetSimulation(cell, int64(i+1), 1200)
		sims += float64(est.Sims)
		p += est.P
	}
	n := float64(b.N)
	b.ReportMetric(sims/n, "sims")
	b.ReportMetric(p/n, "pfail")
}
