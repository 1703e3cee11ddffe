package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
)

// ErrSweepNotFound is returned for unknown sweep IDs.
var ErrSweepNotFound = errors.New("service: no such sweep")

// Sweep is one submitted sweep: a job whose children are the point jobs of
// a grid planned from a SweepSpec, driven by a controller goroutine. Point
// jobs are ordinary jobs — content-addressed, cached, persisted — so a
// re-submitted or recovered sweep answers its completed points from the
// cache and only computes the remainder.
type Sweep struct {
	lifecycle
	Spec SweepSpec

	points []PointPlan
	// parentSpan is the remote parent span ID propagated with the sweep
	// (the router's dispatch span); recorded on the root span so the
	// router can graft this shard's tree into its own.
	parentSpan string

	// Guarded by mu. The terminal payload (lifecycle.result) is the
	// aggregate of a done sweep and the per-point status of a failed or
	// canceled one; agg caches the decoded aggregate.
	pstate []SweepPointStatus
	agg    *SweepResult
}

// SweepPointStatus is the live per-point progress of a sweep.
type SweepPointStatus struct {
	Index  int    `json:"index"`
	State  State  `json:"state"`
	JobID  string `json:"job_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// SweepPointResult is one finished grid point in the sweep's aggregate.
type SweepPointResult struct {
	Index  int      `json:"index"`
	Alpha  *float64 `json:"alpha,omitempty"`
	Vdd    *float64 `json:"vdd,omitempty"`
	TempK  *float64 `json:"temp_k,omitempty"`
	JobID  string   `json:"job_id,omitempty"`
	Key    string   `json:"key"`
	Cached bool     `json:"cached,omitempty"`
	Warm   bool     `json:"warm,omitempty"`
	Error  string   `json:"error,omitempty"`

	Estimate Estimate  `json:"estimate"`
	Cost     CostSplit `json:"cost"`
}

// SweepResult aggregates a finished sweep. TotalSims and SimsSaved are
// derived from the deterministic point payloads, so two runs of the same
// sweep — cached or not — report identical figures.
type SweepResult struct {
	Points []SweepPointResult `json:"points"`
	// TotalSims sums every point payload's total simulation cost (what the
	// grid costs to compute once, regardless of how many points this
	// particular run answered from cache).
	TotalSims int64 `json:"total_sims"`
	// SimsSaved estimates the simulations warm seeding avoided: for every
	// warm-seeded point, the boundary-init (and, unless cloud-only, the
	// classifier warm-up) cost its nearest cold predecessor actually paid.
	SimsSaved int64 `json:"sims_saved,omitempty"`
	// CachedPoints counts points this run answered without new computation;
	// WarmPoints counts points seeded from their predecessor.
	CachedPoints int `json:"cached_points,omitempty"`
	WarmPoints   int `json:"warm_points,omitempty"`
}

// sweepFold accumulates a sweep's aggregate point by point in grid order.
// The service controller and RunSweepLocal both feed it, so a served sweep
// and an in-process one report identical figures.
type sweepFold struct {
	SweepResult
	lastColdInit, lastColdWarmup int64
}

func newSweepFold(points int) *sweepFold {
	return &sweepFold{SweepResult: SweepResult{Points: make([]SweepPointResult, 0, points)}}
}

// add folds one point. out is nil for a point that failed (errMsg says why);
// such a point is listed but adds no cost.
func (f *sweepFold) add(p PointPlan, jobID string, cached bool, out *RunResult, errMsg string) {
	pr := SweepPointResult{
		Index: p.Index, Alpha: p.Alpha, Vdd: p.Vdd, TempK: p.TempK,
		JobID: jobID, Key: p.Key, Cached: cached, Warm: p.Warm, Error: errMsg,
	}
	if out != nil {
		pr.Estimate, pr.Cost = out.Estimate, out.Cost
		f.TotalSims += out.Cost.Total
		if cached {
			f.CachedPoints++
		}
		if p.Warm {
			f.WarmPoints++
			f.SimsSaved += f.lastColdInit
			if !p.CloudOnly {
				f.SimsSaved += f.lastColdWarmup
			}
		} else {
			f.lastColdInit, f.lastColdWarmup = out.Cost.Init, out.Cost.Warmup
		}
	}
	f.Points = append(f.Points, pr)
}

// newSweep creates a queued sweep on the service's base context, joined to
// the propagated trace context tc; every point job joins the same trace ID.
func (s *Service) newSweep(id string, spec SweepSpec, key, tenant string, points []PointPlan, tc obsv.TraceContext) *Sweep {
	sw := &Sweep{Spec: spec, points: points, pstate: queuedPoints(len(points))}
	sw.init(s.baseCtx, id, key, tenant, s.cfg.EventBuffer)
	sw.joinTrace(s.cfg.TraceMaxSpans, tc)
	if len(tc.TraceID) == 32 {
		sw.parentSpan = tc.SpanID
	}
	sw.onState = func(state State, errMsg string, result json.RawMessage, at time.Time) {
		s.onSweepState(sw, state, errMsg, result, at)
	}
	sw.onFinish = sw.publishTerminal
	return sw
}

// restoreSweep rebuilds a terminal sweep from the persistent store, its
// per-point status recovered from the terminal payload.
func restoreSweep(r RecoveredSweep, spec SweepSpec, points []PointPlan) *Sweep {
	sw := &Sweep{Spec: spec, points: points, pstate: queuedPoints(len(points))}
	sw.restore(r.Recovered, r.Result)
	set := func(p SweepPointStatus) {
		if p.Index >= 0 && p.Index < len(sw.pstate) {
			sw.pstate[p.Index] = p
		}
	}
	if r.State == StateDone {
		if res := sw.Result(); res != nil {
			for _, p := range res.Points {
				set(SweepPointStatus{Index: p.Index, State: StateDone, JobID: p.JobID, Cached: p.Cached})
			}
		}
		return sw
	}
	var saved []SweepPointStatus
	if json.Unmarshal(r.Result, &saved) == nil {
		for _, p := range saved {
			set(p)
		}
	}
	return sw
}

func queuedPoints(n int) []SweepPointStatus {
	ps := make([]SweepPointStatus, n)
	for i := range ps {
		ps[i] = SweepPointStatus{Index: i, State: StateQueued}
	}
	return ps
}

// Result returns the aggregate of a done sweep (nil otherwise), decoded from
// its terminal payload.
func (sw *Sweep) Result() *SweepResult {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.agg == nil && sw.state == StateDone && len(sw.result) > 0 {
		var r SweepResult
		if err := json.Unmarshal(sw.result, &r); err == nil {
			sw.agg = &r
		}
	}
	return sw.agg
}

// publishTerminal publishes the terminal "sweep" SSE event. It runs before
// the done channel closes: SSE consumers drain the ring once more when done
// closes, so every subscriber observes it ahead of the final "done" —
// including subscribers to a sweep torn down by DELETE.
func (sw *Sweep) publishTerminal(state State, errMsg string) {
	sw.publish("sweep", sweepTerminal{
		ID: sw.ID, State: state, Error: errMsg, PointsDone: sw.PointsDone(), NumPoints: len(sw.points),
	})
}

// sweepTerminal is the payload of the terminal "sweep" SSE event.
type sweepTerminal struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Error      string `json:"error,omitempty"`
	PointsDone int    `json:"points_done"`
	NumPoints  int    `json:"num_points"`
}

// setPoint commits one point's progress and publishes it to SSE consumers.
func (sw *Sweep) setPoint(i int, st SweepPointStatus) {
	sw.mu.Lock()
	sw.pstate[i] = st
	sw.mu.Unlock()
	sw.publish("point", st)
}

// PointsDone counts points in a terminal state.
func (sw *Sweep) PointsDone() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.pointsDoneLocked()
}

func (sw *Sweep) pointsDoneLocked() int {
	n := 0
	for _, p := range sw.pstate {
		if p.State.Terminal() {
			n++
		}
	}
	return n
}

// SweepView is the JSON representation of a sweep served by the API.
type SweepView struct {
	ID         string             `json:"id"`
	State      State              `json:"state"`
	Tenant     string             `json:"tenant,omitempty"`
	Error      string             `json:"error,omitempty"`
	Key        string             `json:"key"`
	NumPoints  int                `json:"num_points"`
	PointsDone int                `json:"points_done"`
	WarmStart  bool               `json:"warm_start,omitempty"`
	CreatedAt  string             `json:"created_at"`
	StartedAt  string             `json:"started_at,omitempty"`
	FinishedAt string             `json:"finished_at,omitempty"`
	Spec       SweepSpec          `json:"spec"`
	Points     []SweepPointStatus `json:"points,omitempty"`
	Result     *SweepResult       `json:"result,omitempty"`
}

// Snapshot renders the sweep for the API; withDetail adds per-point status
// and, when finished, the aggregate result.
func (sw *Sweep) Snapshot(withDetail bool) SweepView {
	res := sw.Result() // before taking the lock (Result locks too)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	v := SweepView{
		ID:         sw.ID,
		State:      sw.state,
		Tenant:     sw.Tenant,
		Error:      sw.errMsg,
		Key:        sw.Key,
		NumPoints:  len(sw.points),
		PointsDone: sw.pointsDoneLocked(),
		WarmStart:  sw.Spec.WarmStart,
		CreatedAt:  sw.created.UTC().Format(time.RFC3339Nano),
		StartedAt:  stamp(sw.started),
		FinishedAt: stamp(sw.finished),
		Spec:       sw.Spec,
	}
	if withDetail {
		v.Points = append([]SweepPointStatus(nil), sw.pstate...)
		v.Result = res
	}
	return v
}

// The HTTP layer's resource methods (see Server).

func (sw *Sweep) view(detail bool) any { return sw.Snapshot(detail) }

func (sw *Sweep) progress() any {
	return struct {
		ID         string `json:"id"`
		State      State  `json:"state"`
		NumPoints  int    `json:"num_points"`
		PointsDone int    `json:"points_done"`
	}{sw.ID, sw.State(), len(sw.points), sw.PointsDone()}
}

// sseName streams ring events under their own kind: per-point progress as
// "point", the terminal transition as "sweep".
func (sw *Sweep) sseName(kind string) string { return kind }

func (sw *Sweep) traceSpans(s *Service) (string, []obsv.SpanView) { return s.AssembleSweepTrace(sw) }

// runSweep is the controller: it drives every planned point through the
// regular job pipeline and assembles the aggregate. Warm sweeps run their
// points strictly sequentially — point i's spec names point i-1's result by
// content key, so there is no intra-chain parallelism to exploit; cold
// sweeps fan all points out to the worker pool at once. Either way the
// points are plain cached jobs, so a crashed or re-submitted sweep only
// recomputes what the journal and cache do not already hold.
func (s *Service) runSweep(sw *Sweep) {
	defer s.sweepWG.Done()
	if !sw.markRunning() {
		return // canceled while queued
	}
	tctx := obsv.WithTrace(context.Background(), sw.trace)
	_, span := obsv.StartSpan(tctx, "sweep", obsv.S("sweep", sw.ID), obsv.I("points", int64(len(sw.points))))
	if sw.parentSpan != "" {
		span.SetAttr(obsv.S("parent_span", sw.parentSpan))
	}
	// Point jobs run as the sweep's tenant and join its distributed trace,
	// so the reassembled tree carries one trace ID from router to engine.
	// Submit reads only the tenant's name, so a name-only Tenant serves —
	// also for a recovered sweep whose tenant no longer holds a key.
	pctx := WithTenant(context.Background(), &Tenant{cfg: TenantConfig{Name: sw.Tenant}})
	pctx = obsv.WithTraceContext(pctx, obsv.TraceContext{TraceID: sw.trace.ID()})

	var jobs []*Job
	var firstErr error
	if sw.Spec.WarmStart {
		for i := range sw.points {
			j, err := s.submitPoint(pctx, sw, i)
			if err != nil {
				firstErr = fmt.Errorf("point %d: %w", i, err)
				break
			}
			jobs = append(jobs, j)
			if err := s.waitPoint(sw, i, j, span); err != nil {
				firstErr = fmt.Errorf("point %d (%s): %w", i, j.ID, err)
				break
			}
		}
	} else {
		for i := range sw.points {
			j, err := s.submitPoint(pctx, sw, i)
			if err != nil {
				firstErr = fmt.Errorf("point %d: %w", i, err)
				break
			}
			jobs = append(jobs, j)
		}
		for i, j := range jobs {
			if err := s.waitPoint(sw, i, j, span); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("point %d (%s): %w", i, j.ID, err)
			}
		}
	}

	if firstErr != nil {
		// Cancel whatever this sweep still has in flight, then fail. The
		// completed points are cached and journaled: re-submitting the same
		// sweep answers them instantly and resumes from the failure point.
		for _, j := range jobs {
			j.Cancel()
		}
		state := StateFailed
		if errors.Is(firstErr, context.Canceled) || sw.ctx.Err() != nil {
			state = StateCanceled
		}
		span.SetAttr(obsv.S("error", firstErr.Error()))
		span.End()
		// Like a job's, the finished timeline is journaled ahead of the
		// terminal record. The per-point status rides the terminal record,
		// so a restart reports the same progress. Only this goroutine sets
		// points.
		s.persistTrace(&sw.lifecycle)
		sw.mu.Lock()
		pstate, _ := json.Marshal(sw.pstate)
		sw.mu.Unlock()
		sw.finish(state, pstate, firstErr.Error()+" — completed points are cached; resubmit the sweep to resume")
		return
	}

	f := newSweepFold(len(jobs))
	for i, j := range jobs {
		var out RunResult
		if err := json.Unmarshal(j.Result(), &out); err != nil {
			f.add(sw.points[i], j.ID, j.IsCached(), nil, "decode result: "+err.Error())
			continue
		}
		f.add(sw.points[i], j.ID, j.IsCached(), &out, "")
	}
	s.sweepPointsDone.Add(int64(len(f.Points)))
	s.sweepWarmPoints.Add(int64(f.WarmPoints))
	s.sweepSimsSaved.Add(f.SimsSaved)
	span.SetAttr(obsv.I("total_sims", f.TotalSims), obsv.I("sims_saved", f.SimsSaved))
	span.End()
	s.persistTrace(&sw.lifecycle)
	raw, _ := json.Marshal(&f.SweepResult)
	sw.finish(StateDone, raw, "")
}

// submitPoint hands one planned point to the job pipeline and adopts the job
// as the sweep's child. An active job with the same content key — typically
// a crash-recovered re-enqueue — is adopted instead of duplicated; a full
// queue is retried with backoff until the sweep is canceled (cold sweeps can
// be far larger than the queue).
func (s *Service) submitPoint(ctx context.Context, sw *Sweep, i int) (*Job, error) {
	p := sw.points[i]
	j, ok := s.jobs.find(func(j *Job) bool { return j.Key == p.Key && !j.State().Terminal() })
	for !ok {
		var err error
		if j, err = s.Submit(ctx, p.Spec); err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			sw.setPoint(i, SweepPointStatus{Index: i, State: StateFailed, Error: err.Error()})
			return nil, err
		}
		select {
		case <-sw.ctx.Done():
			return nil, sw.ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	sw.adopt(j)
	sw.setPoint(i, SweepPointStatus{Index: i, State: j.State(), JobID: j.ID})
	return j, nil
}

// waitPoint blocks until the point's job is terminal (or the sweep is
// canceled), records a span for it under the sweep span, and commits the
// point status. A non-done terminal state is the point's error.
func (s *Service) waitPoint(sw *Sweep, i int, j *Job, parent *obsv.Span) error {
	start := time.Now()
	select {
	case <-j.Done():
	case <-sw.ctx.Done():
		return sw.ctx.Err()
	}
	v := j.Snapshot(false)
	sw.trace.Add("point", parent.Index(), start, time.Now(),
		obsv.I("index", int64(i)), obsv.S("job", j.ID), obsv.I("sims", v.Sims))
	st := SweepPointStatus{Index: i, State: v.State, JobID: j.ID, Cached: v.Cached, Error: v.Error}
	sw.setPoint(i, st)
	if v.State != StateDone {
		if v.Error != "" {
			return errors.New(v.Error)
		}
		return fmt.Errorf("job ended %s", v.State)
	}
	return nil
}

// RunSweepLocal executes a normalized sweep in-process, without a service:
// the CLI entry point (cmd/ecripse, cmd/dutysweep) and the equivalence tests
// drive it directly. Points run sequentially in grid order; warm linkage is
// resolved from an in-memory map of this run's own payloads. runFn nil
// selects the real estimator runner.
//
// A warm sweep stops at the first point error (its successors' inputs are
// gone); a cold sweep runs every point and reports each failure in its
// point's Error field. Either starts no point once ctx is done. The error
// return joins every per-point failure — callers must treat a non-nil
// error as a failed sweep even though the partial aggregate is returned
// for inspection.
func RunSweepLocal(ctx context.Context, spec SweepSpec, runFn func(context.Context, JobSpec, *montecarlo.Counter) (*RunResult, error)) (*SweepResult, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	if runFn == nil {
		runFn = runSpec
	}
	payloads := make(map[string]json.RawMessage, len(points))
	hooks := runHooks{warmResolver: func(key string) (json.RawMessage, bool) {
		p, ok := payloads[key]
		return p, ok
	}}

	f := newSweepFold(len(points))
	var errs []error
	for _, p := range points {
		if cerr := ctx.Err(); cerr != nil {
			errs = append(errs, fmt.Errorf("point %d not started: %w", p.Index, cerr))
			break // a stopped sweep starts no further point
		}
		out, rerr := runFn(withRunHooks(ctx, hooks), p.Spec, &montecarlo.Counter{})
		if rerr == nil {
			raw, merr := json.Marshal(out)
			if merr != nil {
				rerr = fmt.Errorf("marshal: %w", merr)
			} else {
				payloads[p.Key] = raw
			}
		}
		if rerr != nil {
			f.add(p, "", false, nil, rerr.Error())
			errs = append(errs, fmt.Errorf("point %d: %w", p.Index, rerr))
			if spec.WarmStart {
				break // successors would need this point's warm state
			}
			continue
		}
		f.add(p, "", false, out, "")
	}
	return &f.SweepResult, errors.Join(errs...)
}
