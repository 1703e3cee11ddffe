package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ecripse/internal/blockade"
	"ecripse/internal/core"
	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/rtn"
	"ecripse/internal/sis"
	"ecripse/internal/sram"
	"ecripse/internal/stats"
	"ecripse/internal/subset"
)

// RunResult is the JSON result payload of a completed job.
type RunResult struct {
	Estimate Estimate      `json:"estimate"`
	Series   []SeriesPoint `json:"series,omitempty"`
	Cost     CostSplit     `json:"cost"`
	Sweep    []SweepPoint  `json:"sweep,omitempty"`
	// PFRounds carries the ECRIPSE stage-1 convergence diagnostics (one
	// entry per particle-filter round; a sweep reports its last run's, like
	// Estimate/Series). Deterministic, hence cache-safe.
	PFRounds []core.PFRoundDiag `json:"pf_rounds,omitempty"`
	// Warm is the engine's exported warm state (final particle cloud,
	// trained classifier, trust radius), present only when the spec set
	// export_warm. Successor jobs name this result's content key as warm_in
	// and are seeded from it. Deterministic like everything else here, so it
	// caches soundly.
	Warm *core.WarmState `json:"warm,omitempty"`
	// Health is the statistical-health watchdog's verdict block (present
	// when the estimator evaluated any rule). Only deterministic,
	// scheduling-independent rules contribute, so the block is identical at
	// any parallelism and safe inside the content-addressed cache;
	// wall-clock verdicts (pipeline stalls) go to SSE/metrics only.
	Health *obsv.HealthReport `json:"health,omitempty"`
}

// runHooks carries the service's observational instruments into the runner.
// They ride the context so Config.RunFunc keeps its signature; everything
// here is optional and result-neutral.
type runHooks struct {
	indicatorHist *obsv.Histogram
	// warmResolver maps a predecessor content key to its raw RunResult
	// payload (typically a cache lookup). Required by jobs with warm_in;
	// result-neutral for everything else.
	warmResolver func(key string) (json.RawMessage, bool)
}

type hooksKey struct{}

func withRunHooks(ctx context.Context, h runHooks) context.Context {
	return context.WithValue(ctx, hooksKey{}, h)
}

func hooksFrom(ctx context.Context) runHooks {
	h, _ := ctx.Value(hooksKey{}).(runHooks)
	return h
}

// jsonFloat marshals like float64 but renders non-finite values as null
// (and reads null back as +Inf). Convergence series legitimately carry
// RelErr = +Inf before the first failure hit, and encoding/json refuses
// bare infinities.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.Inf(1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// Estimate is the wire form of stats.Estimate.
type Estimate struct {
	P      float64   `json:"p"`
	CI95   float64   `json:"ci95"`
	RelErr jsonFloat `json:"rel_err"`
	N      int       `json:"n"`
	Sims   int64     `json:"sims"`
}

// Stats converts back to the library type (round-trip exact; a null
// rel_err reads back as the +Inf it encoded).
func (e Estimate) Stats() stats.Estimate {
	return stats.Estimate{P: e.P, CI95: e.CI95, RelErr: float64(e.RelErr), N: e.N, Sims: e.Sims}
}

func toEstimate(e stats.Estimate) Estimate {
	return Estimate{P: e.P, CI95: e.CI95, RelErr: jsonFloat(e.RelErr), N: e.N, Sims: e.Sims}
}

// SeriesPoint is the wire form of stats.Point.
type SeriesPoint struct {
	Sims   int64     `json:"sims"`
	P      float64   `json:"p"`
	CI95   float64   `json:"ci95"`
	RelErr jsonFloat `json:"rel_err"`
	Var    float64   `json:"var,omitempty"`
}

func toSeries(s stats.Series) []SeriesPoint {
	if len(s) == 0 {
		return nil
	}
	out := make([]SeriesPoint, len(s))
	for i, p := range s {
		out[i] = SeriesPoint{Sims: p.Sims, P: p.P, CI95: p.CI95, RelErr: jsonFloat(p.RelErr), Var: p.Var}
	}
	return out
}

// CostSplit breaks the simulation cost down by estimator stage. Stages that
// an estimator does not have stay zero; Classified counts indicator labels
// answered by a classifier (no simulation).
type CostSplit struct {
	Init       int64 `json:"init,omitempty"`
	Warmup     int64 `json:"warmup,omitempty"`
	Stage1     int64 `json:"stage1,omitempty"`
	Stage2     int64 `json:"stage2,omitempty"`
	Classified int64 `json:"classified,omitempty"`
	Total      int64 `json:"total"`

	// Solver effort underneath the indicator calls (root solves and
	// their residual evaluations).
	RootSolves  int64 `json:"root_solves,omitempty"`
	SolverIters int64 `json:"solver_iters,omitempty"`

	// Lane occupancy of the batched indicator kernel: lockstep slots
	// issued and slots that carried a live lane (zero in write mode, whose
	// margin is the scalar solve).
	LaneSlots    int64 `json:"lane_slots,omitempty"`
	LaneOccupied int64 `json:"lane_occupied,omitempty"`

	// Barrier windows the stage-2 loop ran through the double-buffered
	// pipelined driver. Deterministic — a schedule count, not a timing — so
	// it is safe inside the content-addressed result; the pipeline's
	// wall-clock overlap/stall telemetry stays out, on /metrics, like job
	// wall time.
	PipelinedBatches int64 `json:"pipelined_batches,omitempty"`
}

// SweepPoint is one duty-ratio point of a Fig. 8-style sweep job.
type SweepPoint struct {
	Alpha    float64  `json:"alpha"`
	Estimate Estimate `json:"estimate"`
}

// RunSpec normalizes one job spec and executes it in-process with the real
// estimator runner — the CLI entry point for single jobs, sharing the exact
// code path (and therefore the determinism and content-addressing
// guarantees) of service-run jobs. counter may be nil.
func RunSpec(ctx context.Context, s JobSpec, counter *montecarlo.Counter) (*RunResult, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	if counter == nil {
		counter = &montecarlo.Counter{}
	}
	return runSpec(ctx, s, counter)
}

// runSpec executes a normalized spec deterministically: all randomness
// derives from spec.Seed, and ctx checkpoints consume none, so a fixed
// (spec, seed) yields a byte-identical RunResult — the cache-soundness
// invariant. On cancellation the partial result is returned with ctx.Err().
// A stop caused purely by the spec's own MaxSims budget counts as a clean
// completion (the budget is part of the content address, so the partial
// series is the deterministic result of that spec) — unless it left a
// series-recording estimator (every one but subset) without a single series
// point: that run reached no estimate, and its zero must not read as one.
// Only a context stop can be a budget stop; any other runner error, such as
// core.ErrNoFailureRegion, is returned as it is.
func runSpec(ctx context.Context, s JobSpec, counter *montecarlo.Counter) (*RunResult, error) {
	// Every run gets a health monitor: the service installs one wired to
	// SSE/metrics; the CLI path falls back to a silent default here so the
	// result's health block is present either way (and identical — the
	// rules read only deterministic diagnostics).
	hm := obsv.HealthFrom(ctx)
	if hm == nil {
		hm = obsv.NewHealthMonitor(obsv.HealthConfig{}, nil)
		ctx = obsv.WithHealth(ctx, hm)
	}
	runCtx := ctx
	if s.MaxSims > 0 {
		bctx, cancel := context.WithCancel(ctx)
		defer cancel()
		counter.SetLimit(s.MaxSims, cancel)
		runCtx = bctx
	}

	res, err := runEstimator(runCtx, s, counter)

	if errors.Is(err, context.Canceled) && ctx.Err() == nil && s.MaxSims > 0 && counter.Count() >= s.MaxSims {
		err = nil // budget stop, not a cancellation
		if s.Estimator != EstSubset && (res == nil || len(res.Series) == 0) {
			err = fmt.Errorf("max_sims budget of %d spent after %d simulations, before the first estimate", s.MaxSims, counter.Count())
		}
	}
	if res != nil {
		res.Cost.Total = counter.Count()
		if rep := hm.Report(); rep.Checks > 0 {
			res.Health = rep
		}
	}
	return res, err
}

func runEstimator(ctx context.Context, s JobSpec, counter *montecarlo.Counter) (*RunResult, error) {
	cell := s.buildCell()
	rng := rand.New(rand.NewSource(s.Seed))
	sigma := cell.SigmaVth()
	// Per-job solver telemetry for the non-ecripse estimators (the ecripse
	// engine carries its own and reports it through core.Result).
	tel := &sram.SolveTelemetry{}
	snm := &sram.SNMOptions{GridN: 24, BisectIter: 24, Telemetry: tel}
	mode := s.failureMode()

	hooks := hooksFrom(ctx)

	// fails is the counted 0/1 indicator in the normalized space, matching
	// the closures of the top-level library facade exactly.
	fails := func(x linalg.Vector) bool {
		counter.Add(1)
		var sh sram.Shifts
		for i := range sh {
			sh[i] = x[i] * sigma[i]
		}
		switch mode {
		case core.WriteFailure:
			return cell.WriteFails(sh, snm)
		case core.HoldFailure:
			return cell.HoldSNM(sh, snm) < 0
		default:
			return cell.Fails(sh, snm)
		}
	}
	if h := hooks.indicatorHist; h != nil {
		inner := fails
		fails = func(x linalg.Vector) bool {
			t0 := time.Now()
			failed := inner(x)
			h.Observe(time.Since(t0).Seconds())
			return failed
		}
	}

	switch s.Estimator {
	case EstECRIPSE:
		eng := core.NewEngine(cell, counter, core.Options{
			NIS: s.N, M: s.M, Mode: mode, NoClassifier: s.NoClassifier,
			Parallelism:   s.Parallelism,
			IndicatorHist: hooks.indicatorHist,
		})
		if s.WarmIn != "" {
			ws, err := resolveWarm(s, hooks)
			if err != nil {
				return nil, err
			}
			if err := eng.SeedWarm(ws); err != nil {
				return nil, fmt.Errorf("warm seed: %w", err)
			}
		}
		if len(s.Sweep) > 0 {
			cfg := rtn.TableIConfig(cell)
			eng.InitCtx(ctx, rng)
			out := &RunResult{}
			for _, a := range s.Sweep {
				r, err := eng.RunCtx(ctx, rng, rtn.NewSampler(cell, cfg, a))
				addCost(&out.Cost, r)
				if err != nil {
					return out, err
				}
				out.Sweep = append(out.Sweep, SweepPoint{Alpha: a, Estimate: toEstimate(r.Estimate)})
				// The last point's estimate/series double as the top-level
				// ones so single-point sweeps read like plain jobs; the
				// diagnostics follow the same convention.
				out.Estimate, out.Series = toEstimate(r.Estimate), toSeries(r.Series)
				out.PFRounds = r.PFRounds
			}
			if err := exportWarm(eng, s, out); err != nil {
				return out, err
			}
			return out, nil
		}
		var sampler *rtn.Sampler
		if s.RTN {
			sampler = rtn.NewSampler(cell, rtn.TableIConfig(cell), s.Alpha)
		}
		r, err := eng.RunCtx(ctx, rng, sampler)
		out := &RunResult{Estimate: toEstimate(r.Estimate), Series: toSeries(r.Series), PFRounds: r.PFRounds}
		addCost(&out.Cost, r)
		if err == nil {
			err = exportWarm(eng, s, out)
		}
		return out, err

	case EstNaive:
		var sampler *rtn.Sampler
		if s.RTN {
			sampler = rtn.NewSampler(cell, rtn.TableIConfig(cell), s.Alpha)
		}
		trial := func(r *rand.Rand) bool {
			x := make(linalg.Vector, sram.NumTransistors)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			if sampler != nil {
				counter.Add(1)
				var sh sram.Shifts
				for i := range sh {
					sh[i] = x[i] * sigma[i]
				}
				sh = sh.Add(sampler.Sample(r))
				switch mode {
				case core.WriteFailure:
					return cell.WriteFails(sh, snm)
				case core.HoldFailure:
					return cell.HoldSNM(sh, snm) < 0
				default:
					return cell.Fails(sh, snm)
				}
			}
			return fails(x)
		}
		series := montecarlo.NaiveCtx(ctx, rng, trial, s.N, counter, 0)
		fin := series.Final()
		out := &RunResult{
			Estimate: toEstimate(stats.Estimate{
				P: fin.P, CI95: fin.CI95, RelErr: fin.RelErr, N: s.N, Sims: counter.Count(),
			}),
			Series: toSeries(series),
		}
		out.Cost.RootSolves, out.Cost.SolverIters = tel.Totals()
		return out, ctx.Err()

	case EstSIS:
		value := func(x linalg.Vector) float64 {
			if fails(x) {
				return 1
			}
			return 0
		}
		r, err := sis.EstimateCtx(ctx, rng, sram.NumTransistors, value, counter, &sis.Options{NIS: s.N}, nil)
		out := &RunResult{
			Estimate: toEstimate(r.Estimate),
			Series:   toSeries(r.Series),
			Cost:     CostSplit{Init: r.InitSims, Stage1: r.PFSims, Stage2: r.ISSims},
		}
		out.Cost.RootSolves, out.Cost.SolverIters = tel.Totals()
		return out, err

	case EstBlockade:
		r, err := blockade.EstimateCtx(ctx, rng, sram.NumTransistors, fails, counter, s.N, nil)
		out := &RunResult{
			Estimate: toEstimate(r.Estimate),
			Series:   toSeries(r.Series),
			Cost:     CostSplit{Warmup: r.TrainSims, Stage2: r.Passed, Classified: r.Blocked},
		}
		out.Cost.RootSolves, out.Cost.SolverIters = tel.Totals()
		return out, err

	case EstSubset:
		g := func(x linalg.Vector) float64 {
			counter.Add(1)
			var sh sram.Shifts
			for i := range sh {
				sh[i] = x[i] * sigma[i]
			}
			switch mode {
			case core.WriteFailure:
				return cell.WriteMargin(sh, snm)
			case core.HoldFailure:
				return cell.HoldSNM(sh, snm)
			default:
				return cell.ReadSNM(sh, snm)
			}
		}
		if h := hooks.indicatorHist; h != nil {
			inner := g
			g = func(x linalg.Vector) float64 {
				t0 := time.Now()
				v := inner(x)
				h.Observe(time.Since(t0).Seconds())
				return v
			}
		}
		r, err := subset.EstimateCtx(ctx, rng, sram.NumTransistors, g, &subset.Options{N: s.N})
		out := &RunResult{Estimate: toEstimate(r.Estimate)}
		out.Cost.RootSolves, out.Cost.SolverIters = tel.Totals()
		return out, err
	}
	// Normalize guarantees a known estimator; this is unreachable.
	return &RunResult{}, nil
}

// resolveWarm fetches the predecessor result named by spec.WarmIn through
// the context's resolver and extracts its exported warm state. With
// warm_cloud_only the classifier and trust radius are dropped here — before
// the engine sees them — so the engine-side behavior is a pure function of
// the spec, which the cache key already encodes.
func resolveWarm(s JobSpec, hooks runHooks) (*core.WarmState, error) {
	if hooks.warmResolver == nil {
		return nil, fmt.Errorf("warm_in: no predecessor resolver in this run context")
	}
	raw, ok := hooks.warmResolver(s.WarmIn)
	if !ok {
		return nil, fmt.Errorf("warm_in: predecessor result %s not available", s.WarmIn)
	}
	var pred struct {
		Warm *core.WarmState `json:"warm"`
	}
	if err := json.Unmarshal(raw, &pred); err != nil {
		return nil, fmt.Errorf("warm_in: predecessor payload: %w", err)
	}
	if pred.Warm == nil || len(pred.Warm.Cloud) == 0 {
		return nil, fmt.Errorf("warm_in: predecessor %s exported no warm state", s.WarmIn)
	}
	if s.WarmCloudOnly {
		pred.Warm.Classifier = nil
		pred.Warm.TrustR = 0
	}
	return pred.Warm, nil
}

// exportWarm attaches the engine's final warm state to the result when the
// spec asked for it.
func exportWarm(eng *core.Engine, s JobSpec, out *RunResult) error {
	if !s.ExportWarm {
		return nil
	}
	w, err := eng.Warm()
	if err != nil {
		return fmt.Errorf("export warm: %w", err)
	}
	out.Warm = w
	return nil
}

// addCost folds a core.Result's stage split into the job cost. Init and
// warmup are engine-lifetime figures shared across a sweep's points, so
// they are assigned rather than summed; the per-run stages accumulate.
func addCost(c *CostSplit, r core.Result) {
	c.Init = r.InitSims
	c.Warmup = r.WarmupSims
	c.Stage1 += r.Stage1Sims
	c.Stage2 += r.Stage2Sims
	c.Classified += r.Classified
	c.RootSolves += r.RootSolves
	c.SolverIters += r.SolverIters
	c.LaneSlots += r.LaneSlots
	c.LaneOccupied += r.LaneOccupied
	c.PipelinedBatches += r.PipelinedBatches
}
