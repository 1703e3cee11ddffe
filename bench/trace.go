package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"ecripse/internal/core"
	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/rtn"
	"ecripse/internal/service"
	"ecripse/internal/sram"
)

// stage1Candidates is the stage-1 particle count per estimate at the
// core.Options defaults (10 rounds × 2 filters × 40 particles); each
// candidate draws M RTN samples.
const stage1Candidates = 10 * 2 * 40

// spanRec is one recorded span. Spans of one traced unit (an op, a sweep
// point or a service request) share a trace number; parents index into
// the same trace.
type spanRec struct {
	Trace  int            `json:"trace"`
	Phase  string         `json:"phase"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	StartS float64        `json:"start_s"` // since the run started
	DurS   float64        `json:"dur_s"`
	SelfS  float64        `json:"self_s"` // duration minus the direct children's
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
	n     int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished trace and returns its per-name summary.
func (r *recorder) add(phase string, views []obsv.SpanView) spanSums {
	recs := make([]spanRec, len(views))
	for i, v := range views {
		start, _ := time.Parse(time.RFC3339Nano, v.Start)
		recs[i] = spanRec{
			Phase: phase, ID: i, Parent: v.Parent, Name: v.Name,
			StartS: start.Sub(r.t0).Seconds(), DurS: v.DurMS / 1e3, SelfS: v.DurMS / 1e3, Attrs: v.Attrs,
		}
	}
	for _, s := range recs {
		if s.Parent >= 0 && s.Parent < len(recs) {
			recs[s.Parent].SelfS -= s.DurS
		}
	}
	r.mu.Lock()
	for i := range recs {
		recs[i].Trace = r.n
		recs[i].SelfS = math.Max(0, recs[i].SelfS)
	}
	r.n++
	r.spans = append(r.spans, recs...)
	r.mu.Unlock()
	return summarize(recs)
}

// write stores the spans plus a per-name self-time table at path.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type agg struct {
		Count  int     `json:"count"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	byName := map[string]*agg{}
	for _, s := range r.spans {
		a := byName[s.Phase+"/"+s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Phase+"/"+s.Name] = a
		}
		a.Count++
		a.TotalS += s.DurS
		a.SelfS += s.SelfS
	}
	b, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "self_by_phase_and_name": byName, "spans": r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanAgg sums the spans of one name within one trace.
type spanAgg struct {
	n          int
	durS       float64
	found, dir float64 // boundary.init attributes
}

type spanSums map[string]spanAgg

func summarize(recs []spanRec) spanSums {
	s := spanSums{}
	for _, r := range recs {
		a := s[r.Name]
		a.n++
		a.durS += r.DurS
		if r.Name == "boundary.init" {
			a.found += attrNum(r.Attrs["found"])
			a.dir += attrNum(r.Attrs["directions"])
		}
		s[r.Name] = a
	}
	return s
}

// attrNum reads a numeric span attribute, as recorded in process (int64)
// or decoded from JSON (float64).
func attrNum(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// initRun splits an op's time into the engine's initialization and its
// run: around Engine.InitCtx/RunCtx when the benchmark called them, else
// (a service job) from the engine's boundary and training spans inside the
// job's "run" span.
func (s spanSums) initRun() (initS, runS float64) {
	if a, ok := s["core.init"]; ok {
		return a.durS, s["core.run"].durS
	}
	initS = s["boundary.init"].durS + s["blockade.train"].durS
	return initS, s["run"].durS - initS
}

// engineRun is what the probes need from the op that just ran.
type engineRun struct {
	eng   *core.Engine
	cell  *sram.Cell
	res   core.Result
	alpha float64
	rtn   bool
	m     int // RTN draws per RDF sample
}

// engineOp runs one estimate through core.NewEngine, Engine.InitCtx and
// Engine.RunCtx exactly as service.RunSpec does for spec (normalized, read
// mode, Table I cell), under a fresh trace with spans around the two calls.
// warm, when set, seeds the engine like a warm-started sweep point.
func engineOp(ctx context.Context, rec *recorder, phase string, spec service.JobSpec, warm *core.WarmState) (op, *engineRun) {
	t0 := time.Now()
	tr := obsv.NewTrace()
	ctx, opSpan := obsv.StartSpan(obsv.WithTrace(ctx, tr), "op", obsv.I("seed", spec.Seed))
	cell := sram.NewCell(spec.Vdd)
	counter := &montecarlo.Counter{}
	eng := core.NewEngine(cell, counter, core.Options{NIS: spec.N, M: spec.M, Parallelism: spec.Parallelism})
	o := op{alpha: spec.Alpha, warm: warm != nil}
	if len(spec.Sweep) == 1 {
		o.alpha = spec.Sweep[0]
	}
	if warm != nil {
		if err := eng.SeedWarm(warm); err != nil {
			o.err = err
			return o, nil
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var sampler *rtn.Sampler
	if spec.RTN {
		sampler = rtn.NewSampler(cell, rtn.TableIConfig(cell), o.alpha)
	}
	// Solver effort comes from the process-wide counters: Result counts only
	// RunCtx's share, and traced ops run one at a time.
	solves0, iters0 := sram.TotalSolveTelemetry()
	slots0, occ0 := sram.TotalLaneTelemetry()
	ictx, initSpan := obsv.StartSpan(ctx, "core.init")
	eng.InitCtx(ictx, rng)
	initSpan.End()
	rctx, runSpan := obsv.StartSpan(ctx, "core.run")
	res, err := eng.RunCtx(rctx, rng, sampler)
	runSpan.End()
	opSpan.End()
	o.wall = time.Since(t0).Seconds()
	o.err = err
	solves1, iters1 := sram.TotalSolveTelemetry()
	slots1, occ1 := sram.TotalLaneTelemetry()
	o.cost = service.CostSplit{
		Init: res.InitSims, Warmup: res.WarmupSims, Stage1: res.Stage1Sims, Stage2: res.Stage2Sims,
		Classified: res.Classified, RootSolves: solves1 - solves0, SolverIters: iters1 - iters0,
		LaneSlots: slots1 - slots0, LaneOccupied: occ1 - occ0, Total: counter.Count(),
	}
	o.sims, o.p, o.relerr = float64(counter.Count()), res.Estimate.P, res.Estimate.RelErr
	if o.err == nil {
		o.err = validEstimate(o.p, o.relerr)
	}
	o.spans = rec.add(phase, tr.Spans())
	o.nis, o.rtnDraws = spec.N, 0
	if spec.RTN {
		o.rtnDraws = spec.M * (spec.N + stage1Candidates)
	}
	return o, &engineRun{eng: eng, cell: cell, res: res, alpha: o.alpha, rtn: spec.RTN, m: spec.M}
}

// phaseShares split a traced in-process run's window: traced at
// Parallelism 1 (where wall time equals busy time, for the attribution
// line), traced at nproc, and untraced at nproc through the end-to-end
// code path (for the tracing overhead).
var phaseShares = [3]float64{0.4, 0.3, 0.3}

// traced is what the three phases of an in-process traced run produced.
type traced struct {
	p1, pn, plain []op
	last          *engineRun // the last op of the nproc phase, for the probes
	payload       []byte     // a result payload of the plain phase, for the store probe
	pipe          montecarlo.PipelineStats
}

// phaseWindow is phase i's share of the run's window.
func phaseWindow(cfg config, i int) time.Duration {
	return time.Duration(phaseShares[i] * float64(cfg.seconds))
}

func traceClosed(ctx context.Context, cfg config, d *Doc, spec func(int64, int) service.JobSpec, checks func(*Doc, []op)) error {
	rec := newRecorder()
	var t traced
	t.p1 = untilDeadline(ctx, cfg.seed, phaseWindow(cfg, 0), 0, func(seed int64) []op {
		o, _ := engineOp(ctx, rec, "p1", spec(seed, 1), nil)
		return []op{o}
	})
	pipe0 := montecarlo.TotalPipelineStats()
	t.pn = untilDeadline(ctx, cfg.seed, phaseWindow(cfg, 1), 0, func(seed int64) []op {
		o, last := engineOp(ctx, rec, "pn", spec(seed, cfg.nproc), nil)
		t.last = last
		return []op{o}
	})
	t.pipe = pipeDelta(pipe0)
	t.plain = untilDeadline(ctx, cfg.seed, phaseWindow(cfg, 2), 0, func(seed int64) []op {
		t0 := time.Now()
		res, err := service.RunSpec(ctx, spec(seed, cfg.nproc), nil)
		o := newOp(res, err, time.Since(t0))
		if o.err == nil {
			t.payload, _ = json.Marshal(res)
		}
		return []op{o}
	})
	checks(d, t.pn)
	return finishTraced(ctx, cfg, d, rec, t, func(seed int64) service.JobSpec { return spec(seed, 1) })
}

func traceSweep(ctx context.Context, cfg config, d *Doc) error {
	rec := newRecorder()
	var t traced
	// sweepUnit replays service.RunSweepLocal's warm chain on the engine:
	// point i is seeded from point i−1's exported warm state.
	sweepUnit := func(phase string, par int) func(int64) []op {
		return func(seed int64) []op {
			plans, err := sweepPoints(sweepSpec(seed, par))
			if err != nil {
				return []op{{err: err}}
			}
			var ops []op
			var warm *core.WarmState
			for _, p := range plans {
				o, run := engineOp(ctx, rec, phase, p.Spec, warm)
				ops = append(ops, o)
				if o.err != nil {
					break
				}
				if phase == "pn" {
					t.last = run
				}
				if warm, err = run.eng.Warm(); err != nil {
					ops = append(ops, op{err: err})
					break
				}
			}
			return ops
		}
	}
	t.p1 = untilDeadline(ctx, cfg.seed, phaseWindow(cfg, 0), 0, sweepUnit("p1", 1))
	pipe0 := montecarlo.TotalPipelineStats()
	t.pn = untilDeadline(ctx, cfg.seed, phaseWindow(cfg, 1), 0, sweepUnit("pn", cfg.nproc))
	t.pipe = pipeDelta(pipe0)
	t.plain = untilDeadline(ctx, cfg.seed, phaseWindow(cfg, 2), 0, func(seed int64) []op {
		ops, _ := sweepOnce(ctx, sweepSpec(seed, cfg.nproc), &t.payload, false)
		return ops
	})
	sweepChecks(d, t.pn)
	d.set("core.sym_z_max", symZMax(t.pn), len(t.pn))
	// A warm point's spec names its predecessor's job, so the service round
	// sends each sweep's cold first point.
	return finishTraced(ctx, cfg, d, rec, t, func(seed int64) service.JobSpec {
		plans, err := sweepPoints(sweepSpec(seed, 1))
		if err != nil {
			panic(err) // sweepSpec is a valid constant grid
		}
		return plans[0].Spec
	})
}

// sweepPoints expands a sweep spec into its normalized point plans.
func sweepPoints(s service.SweepSpec) ([]service.PointPlan, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return s.Points()
}

// finishTraced derives the per-layer metrics of an in-process traced run,
// checks that the three phases computed identical estimates, runs the
// probes, prints the attribution line and sends a service round of
// roundSpec jobs.
func finishTraced(ctx context.Context, cfg config, d *Doc, rec *recorder, t traced, roundSpec func(seed int64) service.JobSpec) error {
	for _, ops := range [][]op{t.p1, t.pn, t.plain} {
		tally(d, ops)
	}
	samePhases(d, t)
	reportLayers(d, t.pn)
	d.set("montecarlo.stall_frac", stallFrac(t.pipe), int(t.pipe.Batches))
	k := min(len(t.p1), len(t.pn), len(t.plain))
	if k > 0 {
		d.set("core.speedup_vs_1", median(walls(t.p1[:k]))/median(walls(t.pn[:k])), k)
		d.set("obsv.trace_overhead_frac", median(walls(t.pn[:k]))/median(walls(t.plain[:k]))-1, k)
	}
	if t.last == nil {
		return fmt.Errorf("traced run finished no op at parallelism %d", cfg.nproc)
	}
	pr, err := runProbes(t.last, t.payload, cfg.work)
	if err != nil {
		return err
	}
	pr.report(d)
	attribution(d, pr, t.p1)
	if err := serviceRound(ctx, cfg, d, roundSpec); err != nil {
		return err
	}
	if err := rec.write(cfg.spans, cfg.workload, cfg.seed); err != nil {
		return err
	}
	d.note("spans written to %s", cfg.spans)
	return ctx.Err()
}

// samePhases checks that the leading op of each phase produced the same
// estimate: the engine path the traced phases call must compute exactly
// what service.RunSpec does, at any parallelism.
func samePhases(d *Doc, t traced) {
	k := min(len(t.p1), len(t.pn), len(t.plain), 9)
	same := k > 0
	for i := 0; i < k; i++ {
		a, b, c := t.p1[i], t.pn[i], t.plain[i]
		if a.p != b.p || b.p != c.p || a.sims != b.sims || b.sims != c.sims {
			same = false
		}
	}
	d.check("trace.same_estimates", same, "first %d ops: engine path at parallelism 1 and %d, and service.RunSpec, agree bit for bit", k, d.Host.GOMAXPROCS)
}

func walls(ops []op) []float64 {
	var w []float64
	for _, o := range ops {
		w = append(w, o.wall)
	}
	return w
}

func pipeDelta(before montecarlo.PipelineStats) montecarlo.PipelineStats {
	now := montecarlo.TotalPipelineStats()
	return montecarlo.PipelineStats{
		Batches: now.Batches - before.Batches, GenNS: now.GenNS - before.GenNS,
		StallNS: now.StallNS - before.StallNS, SettleNS: now.SettleNS - before.SettleNS,
	}
}

// stallFrac is the share of stage-2 pipeline time spent stalled:
// stall/(gen+stall+settle).
func stallFrac(p montecarlo.PipelineStats) float64 {
	return float64(p.StallNS) / float64(p.GenNS+p.StallNS+p.SettleNS)
}

// reportLayers sets the per-layer metrics derived from op costs and spans.
func reportLayers(d *Doc, ops []op) {
	good := okOps(ops)
	n := len(good)
	var sims, solves, iters, slots, occ, classified, init, stage1, warm float64
	var initS, runS []float64
	named := func(name string) (dur []float64, count int, total float64) {
		for _, o := range good {
			if a, ok := o.spans[name]; ok {
				dur = append(dur, a.durS)
				count += a.n
				total += a.durS
			}
		}
		return dur, count, total
	}
	var found, dirs float64
	for _, o := range good {
		c := o.cost
		sims += float64(c.Total)
		solves += float64(c.RootSolves)
		iters += float64(c.SolverIters)
		slots += float64(c.LaneSlots)
		occ += float64(c.LaneOccupied)
		classified += float64(c.Classified)
		init += float64(c.Init)
		stage1 += float64(c.Stage1)
		if o.warm {
			warm++
		}
		is, rs := o.spans.initRun()
		initS = append(initS, is)
		runS = append(runS, rs)
		found += o.spans["boundary.init"].found
		dirs += o.spans["boundary.init"].dir
	}
	fn := float64(n)
	d.set("sram.root_solves_per_sim", solves/sims, n)
	d.set("sram.iters_per_solve", iters/solves, n)
	d.set("sram.lane_occupancy", occ/slots, n)
	d.set("svm.classified_per_op", classified/fn, n)
	d.set("svm.blockade_frac", classified/(classified+sims), n)
	d.set("pfilter.boundary_sims_per_op", init/fn, n)
	d.set("pfilter.boundary_found_frac", found/dirs, int(dirs))
	d.set("pfilter.stage1_sims_per_op", stage1/fn, n)
	d.set("core.init_s", mean(initS), n)
	d.set("core.run_s", mean(runS), n)
	d.set("core.warm_points_frac", warm/fn, n)
	train, _, _ := named("blockade.train")
	d.set("svm.train_s", mean(train), len(train))
	s2, _, _ := named("stage2.is")
	d.set("montecarlo.stage2_s", mean(s2), len(s2))
	bnd, _, _ := named("boundary.init")
	d.set("pfilter.boundary_s", mean(bnd), len(bnd))
	_, rounds, roundTotal := named("pf.round")
	d.set("pfilter.round_s", roundTotal/float64(rounds), rounds)
}

// attribution prints, for the Parallelism-1 phase, the sum of count × unit
// cost for each layer against the measured op time, and reports the
// remainder as core.unattributed_frac.
func attribution(d *Doc, pr probeResult, p1 []op) {
	good := okOps(p1)
	if len(good) == 0 {
		return
	}
	type term struct {
		name string
		s    float64
	}
	terms := []term{{"sims×margin", 0}, {"classified×score", 0}, {"IS draws×draw", 0},
		{"weighted draws×logpdf", 0}, {"RTN draws×sample", 0}, {"svm training", 0}}
	measured := 0.0
	for _, o := range good {
		terms[0].s += o.sims * pr.marginS
		terms[1].s += float64(o.cost.Classified) * pr.scoreS
		terms[2].s += float64(o.nis) * pr.drawS
		// The engine evaluates the importance weight only for draws with a
		// positive value.
		terms[3].s += float64(o.nis) * pr.positive * pr.logpdfS
		terms[4].s += float64(o.rtnDraws) * pr.sampleS
		// The training span also covers the warm-up simulations, which the
		// first term already counts.
		terms[5].s += math.Max(0, o.spans["blockade.train"].durS-float64(o.cost.Warmup)*pr.marginS)
		measured += o.wall
	}
	n := float64(len(good))
	line := fmt.Sprintf("attribution %s (parallelism 1, %d ops, %.0f%% of draws weighted, per op):", d.Workload, len(good), 100*pr.positive)
	sum := 0.0
	for i, t := range terms {
		if i > 0 {
			line += " +"
		}
		line += fmt.Sprintf(" %s %.2f ms", t.name, 1e3*t.s/n)
		sum += t.s
	}
	un := 1 - sum/measured
	line += fmt.Sprintf(" = %.2f ms of %.2f ms measured; unattributed %.1f%%", 1e3*sum/n, 1e3*measured/n, 100*un)
	d.Notes = append(d.Notes, line)
	d.set("core.unattributed_frac", un, len(good))
}
