package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"ecripse/internal/device"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
	"ecripse/internal/store"
	"ecripse/internal/svm"
)

// probeReps is how many timed repetitions each probe takes; it reports the
// median.
const probeReps = 7

// probeResult holds the unit costs the probes measured, in seconds, and
// the share of stage-2 draws whose importance weight the engine evaluates.
type probeResult struct {
	idsS     float64 // one lane of a 64-lane drain-current evaluation
	marginS  float64 // one noise margin inside a 64-lane batch
	scoreS   float64 // one classifier score
	drawS    float64 // one draw from the stage-2 proposal
	logpdfS  float64 // one proposal log-density
	sampleS  float64 // one RTN shift vector
	appendS  float64 // one fsync'd journal append of a result payload
	positive float64 // share of proposal draws with a failing label
}

// unitCost calls fn, which performs units units of work, once to warm up
// and probeReps more times, and returns the median seconds per unit.
func unitCost(units int, fn func()) float64 {
	fn()
	per := make([]float64, probeReps)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = time.Since(t0).Seconds() / float64(units)
	}
	return median(per)
}

// runProbes times one public entry point of each layer on inputs taken from
// run: points drawn from its stage-2 proposal (the particle GMM defensively
// mixed with the nominal distribution, as the engine builds it), its cell,
// its classifier, and (for the store) a result payload.
func runProbes(run *engineRun, payload []byte, work string) (probeResult, error) {
	const batch, lanes = 256, 64
	rng := rand.New(rand.NewSource(1))
	sigma := run.eng.Sigma()
	mix := &montecarlo.DefensiveMixture{Q: run.res.Proposal, Rho: run.eng.Opts.Rho, Dim: sram.NumTransistors}
	xs := make([]linalg.Vector, batch)
	shs := make([]sram.Shifts, batch)
	for i := range xs {
		xs[i] = mix.Sample(rng)
		for j := range shs[i] {
			shs[i][j] = xs[i][j] * sigma[j]
		}
	}
	var pr probeResult
	var sink float64 // the probed calls' results feed it, so none can be optimized away
	pr.drawS = unitCost(batch, func() {
		for range xs {
			sink += mix.Sample(rng)[0]
		}
	})

	vdd := run.cell.Vdd
	dvth, vd, ids := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
	for l := range dvth {
		dvth[l] = shs[l][sram.D1]
		vd[l] = vdd * (float64(l) + 0.5) / lanes
	}
	var rb device.ResolvedBatch
	run.cell.Devs[sram.D1].ResolveLanes(dvth, &rb)
	const idsCalls = 2000
	pr.idsS = unitCost(idsCalls*lanes, func() {
		for i := 0; i < idsCalls; i++ {
			rb.StoreIds(vdd, vd, 0, 0, nil, ids)
		}
		sink += ids[0]
	})

	margins := make([]sram.SNMResult, batch)
	opts := &sram.SNMOptions{GridN: 24, BisectIter: 24, Lanes: lanes} // the engine's indicator grid
	pr.marginS = unitCost(batch, func() {
		run.cell.NoiseMarginBatch(shs, margins, opts)
		sink += margins[0].Lobe1
	})

	pr.scoreS = math.NaN()
	ws, err := run.eng.Warm()
	if err != nil {
		return pr, fmt.Errorf("probe: %w", err)
	}
	if len(ws.Classifier) > 0 {
		cls, err := svm.Load(bytes.NewReader(ws.Classifier))
		if err != nil {
			return pr, fmt.Errorf("probe: %w", err)
		}
		sc := cls.NewScorer() // the scorer the engine labels with
		const scoreCalls = 20
		pr.scoreS = unitCost(scoreCalls*batch, func() {
			for i := 0; i < scoreCalls; i++ {
				for _, x := range xs {
					sink += sc.Score(x)
				}
			}
		})
	}

	pr.logpdfS = unitCost(batch, func() {
		for _, x := range xs {
			sink += run.res.Proposal.LogPDF(x)
		}
	})

	alpha := run.alpha
	if !run.rtn {
		alpha = 0.5
	}
	smp := rtn.NewSampler(run.cell, rtn.TableIConfig(run.cell), alpha)
	const draws = 20000
	pr.sampleS = unitCost(draws, func() {
		for i := 0; i < draws; i++ {
			sink += smp.Sample(rng)[0]
		}
	})
	pr.positive = positiveShare(run, shs, smp, rng, opts)

	pr.appendS, err = appendProbe(work, payload)
	return pr, err
}

// positiveShare estimates the share of stage-2 draws with a positive value
// — at least one of the op's M RTN-shifted copies fails — by simulating
// the probe's draws. The pipelined stage-2 loop evaluates the proposal
// log-density only for those draws.
func positiveShare(run *engineRun, shs []sram.Shifts, smp *rtn.Sampler, rng *rand.Rand, opts *sram.SNMOptions) float64 {
	m := 1
	if run.rtn {
		m = run.m
	}
	all := make([]sram.Shifts, 0, len(shs)*m)
	for _, sh := range shs {
		for k := 0; k < m; k++ {
			if run.rtn {
				all = append(all, sh.Add(smp.Sample(rng)))
			} else {
				all = append(all, sh)
			}
		}
	}
	res := make([]sram.SNMResult, len(all))
	run.cell.NoiseMarginBatch(all, res, opts)
	pos := 0
	for i := range shs {
		for k := 0; k < m; k++ {
			if res[i*m+k].Fails() {
				pos++
				break
			}
		}
	}
	return float64(pos) / float64(len(shs))
}

// appendProbe times fsync'd FileStore.AppendResult calls of payload in a
// fresh data directory under work and returns the median.
func appendProbe(work string, payload []byte) (float64, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("store probe: no result payload")
	}
	dir, err := os.MkdirTemp(work, "store-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		return 0, err
	}
	const appends = 20
	ts := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		if err := st.AppendResult(fmt.Sprintf("%064x", i), payload); err != nil {
			st.Close()
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), st.Close()
}

func (pr probeResult) report(d *Doc) {
	d.set("device.ids_ns_per_lane", pr.idsS*1e9, probeReps)
	d.set("sram.margin_us", pr.marginS*1e6, probeReps)
	d.set("svm.score_ns", pr.scoreS*1e9, probeReps)
	d.set("montecarlo.proposal_draw_ns", pr.drawS*1e9, probeReps)
	d.set("montecarlo.gmm_logpdf_ns", pr.logpdfS*1e9, probeReps)
	d.set("rtn.sample_ns", pr.sampleS*1e9, probeReps)
	d.set("store.append_s_p50", pr.appendS, 20)
}
