package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/service"
)

// workloads maps each workload to the code that measures it; why each
// exists is recorded in BENCHMARK.json and README.md.
var workloads = map[string]func(ctx context.Context, cfg config, d *Doc) error{
	"fig7-rtn":     runClosed(fig7Spec, fig7Checks),
	"rdf-rare":     runClosed(rdfSpec, rdfChecks),
	"sweep-warm":   runSweep,
	"service-open": runService,
}

// The count metrics (sims_per_op, sims_to_relerr10) average over a fixed
// number of leading ops, which makes them a pure function of the seed: two
// runs of one commit and seed agree exactly. Each number is about two
// thirds of what a 20-s window completes on a quiet 2-core host; on a
// slower one the window stretches until they are done, by half at most.
// service-open uses every miss, which its schedule already fixes.
const (
	closedCountOps = 200
	sweepCountOps  = 360 // 40 sweeps; a sweep's points share their start, so more are needed
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median. One set-up takes 0.1–0.2 s on a 2-core host, so fifteen add
	// about 2 s to a run.
	setupReps = 15
	// warmupSeed seeds the two untimed warm-up ops of every set-up. It lies
	// outside the range the op streams draw from (see stream.nextSeed), so
	// a warm-up never shares a cache key with a timed op.
	warmupSeed = 1 << 40
)

// reference is the value a workload's mean estimate is checked against.
type reference struct {
	p, se float64
	// offset is the relative amount by which the workload's estimator is
	// known to sit off p; the check centres on p·(1+offset).
	offset float64
}

// Reference values of the correctness checks.
var (
	// fig7Ref is the naive Monte Carlo value of results/fig7.csv (alpha 0.3,
	// N=120000, CI95 7.05e-4).
	fig7Ref = reference{p: 1.5767e-2, se: 7.0482e-4 / 1.96}
	// rdfRef is the long ECRIPSE run of results/rdfonly.txt (N=400000, CI95
	// 3.22e-6). Estimates at rdf-rare's N=20000 average 9.0% below it: the
	// mean of 2700 of them (seeds 21–30, 270 each) is 1.2628e-4 ± 7.6e-7,
	// and the reference's own SE makes the offset 9.0% ± 1.3%.
	rdfRef = reference{p: 1.388e-4, se: 3.2238e-6 / 1.96, offset: -0.090}
)

// minCheckOps is the op count below which a statistical check is skipped
// (the smoke test runs single ops).
const minCheckOps = 10

func fig7Spec(seed int64, par int) service.JobSpec {
	return service.JobSpec{Vdd: 0.5, RTN: true, Alpha: 0.3, N: 10000, M: 5, Seed: seed, Parallelism: par}
}

func rdfSpec(seed int64, par int) service.JobSpec {
	return service.JobSpec{Vdd: 0.7, N: 20000, Seed: seed, Parallelism: par}
}

func sweepSpec(seed int64, par int) service.SweepSpec {
	return service.SweepSpec{
		Base:      service.JobSpec{RTN: true, Vdd: 0.5, N: 10000, M: 5, Seed: seed, Parallelism: par},
		Alpha:     &service.Axis{From: 0.1, To: 0.9, Steps: 9},
		WarmStart: true,
	}
}

// warmupSweep is the sweep set-up's two warm-up ops: a cold point and the
// warm point chained from it.
func warmupSweep(par int) service.SweepSpec {
	s := sweepSpec(warmupSeed, par)
	s.Alpha = &service.Axis{From: 0.1, To: 0.2, Steps: 2}
	return s
}

// stream expands a workload seed into per-op inputs.
type stream struct{ rng *rand.Rand }

func newStream(seed int64) stream { return stream{rand.New(rand.NewSource(seed))} }

// nextSeed draws the next spec seed, in [1, 2^31].
func (s stream) nextSeed() int64 { return s.rng.Int63n(1<<31) + 1 }

// op is one timed operation that produced (or failed to produce) an
// estimate.
type op struct {
	// wall is the op's time in seconds; for a service request, from its due
	// time to its result. Untraced runs convert it to reference seconds
	// (calib.go) with the calibration time cal.
	wall, cal float64
	p         float64
	relerr    float64
	sims      float64
	alpha     float64
	warm      bool
	cost      service.CostSplit
	err       error

	// Traced runs only: the op's spans by name, and the importance-sampling
	// and RTN draws it made (for the attribution line).
	spans         spanSums
	nis, rtnDraws int
}

func newOp(res *service.RunResult, err error, wall time.Duration) op {
	o := op{wall: wall.Seconds(), err: err}
	if err == nil && res == nil {
		o.err = errors.New("no result")
	}
	if o.err != nil {
		return o
	}
	o.p, o.relerr = res.Estimate.P, float64(res.Estimate.RelErr)
	o.sims, o.cost = float64(res.Cost.Total), res.Cost
	o.err = validEstimate(o.p, o.relerr)
	return o
}

// validEstimate rejects what the benchmark counts as a failed estimate: a P
// that is not finite or outside (0,1), or no usable relative error.
func validEstimate(p, relerr float64) error {
	if !(p > 0 && p < 1) {
		return fmt.Errorf("estimate P=%v outside (0,1)", p)
	}
	if !(relerr > 0) || math.IsInf(relerr, 0) {
		return fmt.Errorf("relative error %v not positive and finite", relerr)
	}
	return nil
}

func okOps(ops []op) []op {
	var out []op
	for _, o := range ops {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

// tally sets Attempted/Failed and notes the first failure.
func tally(d *Doc, ops []op) {
	d.Attempted += len(ops)
	for _, o := range ops {
		if o.err != nil {
			if d.Failed == 0 {
				d.note("first failure: %v", o.err)
			}
			d.Failed++
		}
	}
}

// reportE2E sets the end-to-end metrics from a run's ops and set-up times,
// all in reference seconds; the count metrics use the first countOps
// successful ops.
func reportE2E(d *Doc, ops []op, setup []float64, countOps int) {
	good := okOps(ops)
	var walls, cals, raw, relerrs, sims []float64
	for _, o := range good {
		walls = append(walls, o.wall)
		cals = append(cals, o.cal)
		raw = append(raw, o.wall*o.cal/calRefS)
		relerrs = append(relerrs, o.relerr)
		sims = append(sims, o.sims)
	}
	d.note("calibration %.3f ms median (reference %.3f ms); op wall p50 %.4f s before conversion",
		1e3*median(cals), 1e3*calRefS, median(raw))
	d.set("setup_s", median(setup), len(setup))
	d.set("op_s_p50", median(walls), len(walls))
	d.set("op_s_p90", p90(walls), len(walls))
	d.set("s_to_relerr10", toRelErr10(walls, relerrs), len(walls))
	k := min(countOps, len(good))
	d.set("sims_per_op", mean(sims[:k]), k)
	d.set("sims_to_relerr10", toRelErr10(sims[:k], relerrs[:k]), k)
	d.set("max_rss_mb", maxRSSMB(), 1)
}

// refCheck tests the mean of ps against a reference: it passes when
// |mean − p·(1+offset)| ≤ 4·√(se² + SE²), with SE the standard error of the
// mean. Below minCheckOps estimates it is skipped.
func refCheck(d *Doc, name string, ps []float64, ref reference) {
	if len(ps) < minCheckOps {
		d.check(name, true, "skipped: %d estimates (< %d)", len(ps), minCheckOps)
		return
	}
	m, se := meanSE(ps)
	want := ref.p * (1 + ref.offset)
	comb := math.Hypot(ref.se, se)
	z := math.Abs(m-want) / comb
	d.check(name, z <= 4, "mean P %.4e ± %.2e (n=%d) vs %.4e ± %.2e (%+.1f%% offset): %.1f combined SE, limit 4",
		m, se, len(ps), ref.p, ref.se, 100*ref.offset, z)
}

func estimates(ops []op) []float64 {
	var ps []float64
	for _, o := range okOps(ops) {
		ps = append(ps, o.p)
	}
	return ps
}

func fig7Checks(d *Doc, ops []op) {
	refCheck(d, "fig7-rtn.naive_mc", estimates(ops), fig7Ref)
}

func rdfChecks(d *Doc, ops []op) {
	refCheck(d, "rdf-rare.reference", estimates(ops), rdfRef)
}

// setupTimes runs a workload's set-up reps times and returns each duration
// in reference seconds. Every set-up ends with the workload's two untimed
// warm-up ops.
func setupTimes(reps int, setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ref, _ := refSeconds(time.Since(t0).Seconds())
		out = append(out, ref)
	}
	return out, nil
}

// runClosed measures a closed-loop, one-client workload of single
// estimates through service.RunSpec.
func runClosed(spec func(seed int64, par int) service.JobSpec, checks func(*Doc, []op)) func(context.Context, config, *Doc) error {
	return func(ctx context.Context, cfg config, d *Doc) error {
		if cfg.trace {
			return traceClosed(ctx, cfg, d, spec, checks)
		}
		runOne := func(seed int64) (*service.RunResult, error) {
			return service.RunSpec(ctx, spec(seed, cfg.nproc), &montecarlo.Counter{})
		}
		setup, err := setupTimes(cfg.setupReps, func() error {
			if _, err := runOne(warmupSeed); err != nil {
				return err
			}
			_, err := runOne(warmupSeed + 1)
			return err
		})
		if err != nil {
			return err
		}
		ops := untilDeadline(ctx, cfg.seed, cfg.seconds, cfg.closedCount, func(seed int64) []op {
			t0 := time.Now()
			res, err := runOne(seed)
			o := newOp(res, err, time.Since(t0))
			o.wall, o.cal = refSeconds(o.wall)
			return []op{o}
		})
		tally(d, ops)
		reportE2E(d, ops, setup, cfg.closedCount)
		checks(d, ops)
		return nil
	}
}

// untilDeadline runs units of work back to back — one op, or one sweep of
// ops — on successive seeds of the workload's stream until window has
// passed and at least minOps ops are done, and at least once. minOps keeps
// the count metrics' prefix whole on a slow host; the window stretches by
// half at most, which bounds how long a run takes.
func untilDeadline(ctx context.Context, seed int64, window time.Duration, minOps int, unit func(seed int64) []op) []op {
	s := newStream(seed)
	start := time.Now()
	var ops []op
	for {
		ops = append(ops, unit(s.nextSeed())...)
		el := time.Since(start)
		if (el >= window && len(ops) >= minOps) || el >= window*3/2 || ctx.Err() != nil {
			return ops
		}
	}
}

// runSweep measures warm-started alpha sweeps through service.RunSweepLocal;
// one op is one grid point, timed around its service.RunSpec call.
func runSweep(ctx context.Context, cfg config, d *Doc) error {
	if cfg.trace {
		return traceSweep(ctx, cfg, d)
	}
	setup, err := setupTimes(cfg.setupReps, func() error {
		_, err := sweepOnce(ctx, warmupSweep(cfg.nproc), nil, false)
		return err
	})
	if err != nil {
		return err
	}
	ops := untilDeadline(ctx, cfg.seed, cfg.seconds, cfg.sweepCount, func(seed int64) []op {
		pts, _ := sweepOnce(ctx, sweepSpec(seed, cfg.nproc), nil, true)
		return pts
	})
	tally(d, ops)
	reportE2E(d, ops, setup, cfg.sweepCount)
	sweepChecks(d, ops)
	return nil
}

// sweepOnce runs one sweep and returns its points as ops. A point that
// fails stops a warm sweep; the error is returned and recorded on the op.
// payload, when set, receives the last point's result payload. ref
// converts each point's wall time to reference seconds.
func sweepOnce(ctx context.Context, spec service.SweepSpec, payload *[]byte, ref bool) ([]op, error) {
	var ops []op
	_, err := service.RunSweepLocal(ctx, spec, func(ctx context.Context, js service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
		t0 := time.Now()
		res, err := service.RunSpec(ctx, js, c)
		o := newOp(res, err, time.Since(t0))
		if ref {
			o.wall, o.cal = refSeconds(o.wall)
		}
		o.alpha, o.warm = js.Sweep[0], js.WarmIn != ""
		ops = append(ops, o)
		if payload != nil && o.err == nil {
			*payload, _ = json.Marshal(res)
		}
		return res, err
	})
	if err != nil && (len(ops) == 0 || ops[len(ops)-1].err == nil) {
		ops = append(ops, op{err: err})
	}
	return ops, err
}

// sweepChecks: the alpha=0.3 mean passes the naive Monte Carlo check, and
// the alpha with the lowest mean P is 0.4, 0.5 or 0.6 (the paper puts the
// minimum at 0.5).
func sweepChecks(d *Doc, ops []op) {
	byAlpha := alphaGroups(ops)
	refCheck(d, "sweep-warm.alpha0.3_naive_mc", byAlpha[3], fig7Ref)
	if len(byAlpha[5]) < minCheckOps {
		d.check("sweep-warm.min_alpha", true, "skipped: %d sweeps (< %d)", len(byAlpha[5]), minCheckOps)
		return
	}
	best, bestP := 0, math.Inf(1)
	for a := 1; a <= 9; a++ {
		if m := mean(byAlpha[a]); m < bestP {
			best, bestP = a, m
		}
	}
	d.check("sweep-warm.min_alpha", best >= 4 && best <= 6, "lowest mean P %.4e at alpha 0.%d", bestP, best)
}

// alphaGroups buckets successful sweep estimates by alpha in tenths.
func alphaGroups(ops []op) map[int][]float64 {
	g := map[int][]float64{}
	for _, o := range okOps(ops) {
		a := int(math.Round(o.alpha * 10))
		g[a] = append(g[a], o.p)
	}
	return g
}

// symZMax is the largest |P(α) − P(1−α)| over the pairs 0.1/0.9 … 0.4/0.6,
// in combined standard errors (0 with fewer than two sweeps).
func symZMax(ops []op) float64 {
	g := alphaGroups(ops)
	z := 0.0
	for a := 1; a <= 4; a++ {
		m1, se1 := meanSE(g[a])
		m2, se2 := meanSE(g[10-a])
		if v := math.Abs(m1-m2) / math.Hypot(se1, se2); v > z {
			z = v
		}
	}
	return z
}
