package core

import (
	"math/rand"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/sram"
)

// benchPoints draws n normalized variability points spread from the typical
// region out to ~4 sigma, so a barrier mixes passing and failing samples
// like a real stage-2 batch does.
func benchPoints(n int) []linalg.Vector {
	rng := rand.New(rand.NewSource(42))
	us := make([]linalg.Vector, n)
	for i := range us {
		u := linalg.NewVector(sram.NumTransistors)
		scale := 1 + 3*rng.Float64()
		for d := range u {
			u[d] = scale * rng.NormFloat64()
		}
		us[i] = u
	}
	return us
}

// BenchmarkSimulateBatch measures one stage-2 settlement barrier: a full
// batch of indicator calls through the lockstep margin solver. Run with
// -benchmem — after the first barrier warms the engine scratch, the steady
// state must be allocation-free (the per-barrier shs/margins/results
// buffers and solver tallies are all pooled on the engine).
func BenchmarkSimulateBatch(b *testing.B) {
	cases := []struct {
		name string
		opts Options
	}{
		{"read", Options{}},
		{"read-par4", Options{Parallelism: 4}},
		{"hold", Options{Mode: HoldFailure}},
	}
	us := benchPoints(stage2Batch)
	out := make([]bool, len(us))
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine(sram.NewCell(0.5), nil, tc.opts)
			e.simulateBatch(us, out) // warm the engine scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.simulateBatch(us, out)
			}
		})
	}
}

// logPDFSink keeps BenchmarkProposalLogPDF's calls from being optimized away.
var logPDFSink float64

// BenchmarkProposalLogPDF times GMM.LogPDF on an engine-built mixture: the
// stage-2 proposal of the rdf-rare configuration (Vdd 0.7, RDF only, seed
// 3), whose components, weights and spread set how often the fold meets a
// new running maximum and how many terms the −40 cutoff drops. The queries
// are draws from the mixture itself, as stage 2's are (up to the defensive
// share). ns/op is per call.
func BenchmarkProposalLogPDF(b *testing.B) {
	res, err := RDFOnly(rand.New(rand.NewSource(3)), sram.NewCell(0.7), Options{NIS: stage2Batch})
	if err != nil {
		b.Fatal(err)
	}
	g := res.Proposal
	rng := rand.New(rand.NewSource(4))
	xs := make([]linalg.Vector, 1024)
	for i := range xs {
		xs[i] = g.Sample(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logPDFSink = g.LogPDF(xs[i%len(xs)])
	}
	b.ReportMetric(float64(len(g.Means)), "components")
}
