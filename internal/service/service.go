package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/sram"
)

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("service: no such job")

// Config sizes the service's three layers and selects its persistence.
type Config struct {
	Workers       int // worker pool size (default 4)
	QueueCapacity int // bounded FIFO depth (default 64)
	CacheCapacity int // LRU result-cache entries (negative disables; default 256)

	// MaxJobParallelism caps the per-job intra-estimator worker count
	// requested via JobSpec.Parallelism, so pool-level concurrency (Workers
	// jobs at once) and intra-job parallelism compose instead of
	// oversubscribing the machine. 0 selects max(1, GOMAXPROCS/Workers);
	// negative disables intra-job parallelism entirely (every job runs
	// serial). Results are unaffected either way — estimates are
	// bit-identical at any parallelism level.
	MaxJobParallelism int

	// Store persists job events and results across restarts. Nil selects
	// the in-memory no-op store (nothing survives the process).
	Store Store

	// NodeID namespaces job IDs with a shard name ("s1" → "s1-j000001") so
	// IDs minted by several shards never collide behind a cluster router.
	// Empty keeps the single-node "j000001" form. The prefix never enters
	// the spec hash — routing must not perturb cache keys.
	NodeID string

	// Tenants is the multi-tenant control plane: API-key authentication,
	// token-bucket rate limits and quota accounting enforced at submit by
	// the HTTP layer. Nil means open access (the single-user default).
	// Recovered usage is replayed into it and changes are persisted through
	// Store.AppendTenant.
	Tenants *Tenants

	// RemoteCache is the cluster read-through hook: consulted on a local
	// cache miss before a job is enqueued, typically wired to a fan-out
	// lookup across peer shards (GET /v1/cache/{key}). A hit is answered
	// like a local one — done, flagged cached, zero new simulations — and
	// the payload is adopted into the local cache. Determinism makes this
	// sound: any node's payload for a key is byte-identical.
	RemoteCache func(key string) (json.RawMessage, bool)

	// RunFunc substitutes the job runner; nil selects the real estimator
	// runner. It exists so tests — including out-of-package crash-recovery
	// tests — can make scheduling deterministic and cheap.
	RunFunc func(context.Context, JobSpec, *montecarlo.Counter) (*RunResult, error)

	// Logger receives structured service logs (job transitions, persistence
	// failures, recovery warnings). Nil selects slog.Default().
	Logger *slog.Logger

	// EventBuffer is the per-job diagnostic-event ring capacity for SSE
	// consumers (default 256). A consumer that falls further behind loses
	// the oldest events and is told how many it missed.
	EventBuffer int

	// TraceMaxSpans bounds each job's and sweep's persisted span count
	// (default obsv.DefaultMaxSpans). Overflowing spans are dropped and
	// counted in a final `truncated` attribute instead of growing the
	// journal without bound.
	TraceMaxSpans int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxJobParallelism == 0 {
		if c.MaxJobParallelism = runtime.GOMAXPROCS(0) / c.Workers; c.MaxJobParallelism < 1 {
			c.MaxJobParallelism = 1
		}
	}
	if c.MaxJobParallelism < 0 {
		c.MaxJobParallelism = 1
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 256
	}
	if c.Store == nil {
		c.Store = nopStore{}
	}
	if c.RunFunc == nil {
		c.RunFunc = runSpec
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.TraceMaxSpans <= 0 {
		c.TraceMaxSpans = obsv.DefaultMaxSpans
	}
}

// telemetry bundles the service's fixed-bucket histograms. All four are
// allocation-free atomic observers; the solver histogram is additionally
// registered as the process-wide sram solve observer. healthViolations
// counts watchdog rule firings by rule name (the
// ecripsed_health_violations_total families).
type telemetry struct {
	jobDuration *obsv.Histogram // run wall time, seconds
	queueWait   *obsv.Histogram // queued → running, seconds
	indicator   *obsv.Histogram // one true-indicator evaluation, seconds
	rootIters   *obsv.Histogram // Illinois iterations per root solve

	healthMu         sync.Mutex
	healthViolations map[string]int64
}

// healthViolation counts one watchdog rule firing.
func (t *telemetry) healthViolation(rule string) {
	t.healthMu.Lock()
	t.healthViolations[rule]++
	t.healthMu.Unlock()
}

// healthSnapshot copies the per-rule counters (nil when none fired).
func (t *telemetry) healthSnapshot() map[string]int64 {
	t.healthMu.Lock()
	defer t.healthMu.Unlock()
	if len(t.healthViolations) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.healthViolations))
	for k, v := range t.healthViolations {
		out[k] = v
	}
	return out
}

func newTelemetry() *telemetry {
	return &telemetry{
		jobDuration: obsv.NewHistogram("ecripsed_job_duration_seconds",
			"Wall time of a job from start of execution to its terminal state.",
			obsv.ExpBuckets(0.01, 2, 16)),
		queueWait: obsv.NewHistogram("ecripsed_queue_wait_seconds",
			"Time a job spent queued before a worker picked it up.",
			obsv.ExpBuckets(0.001, 4, 10)),
		indicator: obsv.NewHistogram("ecripsed_indicator_seconds",
			"Wall time of one true-indicator evaluation (one transistor-level simulation).",
			obsv.ExpBuckets(1e-5, 2, 16)),
		rootIters: obsv.NewHistogram("ecripsed_root_solve_iterations",
			"Illinois iterations per half-cell root solve (per-curve average).",
			obsv.LinearBuckets(4, 4, 12)),
		healthViolations: make(map[string]int64),
	}
}

// Service owns the job and sweep registries, the bounded queue, the worker
// pool and the result cache. Create one with New, submit with Submit or
// SubmitSweep, and shut it down with Drain.
type Service struct {
	cfg   Config
	queue *queue
	pool  *pool
	cache *cache
	st    Store

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	replayed   int          // jobs re-enqueued or re-answered at boot
	appendErrs atomic.Int64 // store appends that failed (logged, not fatal)
	remoteHits atomic.Int64 // submits answered via the cluster read-through

	// runFn executes a job spec; tests substitute it to make scheduling
	// behavior (backpressure, drain, races) deterministic and cheap.
	runFn func(context.Context, JobSpec, *montecarlo.Counter) (*RunResult, error)

	log     *slog.Logger
	tel     *telemetry
	started time.Time

	jobs   *registry[*Job]
	sweeps *registry[*Sweep]
	// sweepWG tracks the sweep controllers, so Drain can wait them out after
	// the worker pool settles.
	sweepWG sync.WaitGroup

	sweepPointsDone atomic.Int64 // grid points driven to completion
	sweepWarmPoints atomic.Int64 // points seeded from a predecessor
	sweepSimsSaved  atomic.Int64 // estimated simulations avoided by warm starts
}

// New builds a service, replays whatever state its store recovered from
// disk, and starts the worker pool. Recovered terminal jobs are restored
// as-is (done results re-attached from the persisted result set); jobs
// that were queued or running when the previous process died are
// re-enqueued under their original IDs — their specs are deterministic, so
// the re-run reproduces the lost result — or answered straight from the
// restored cache when an identical spec already completed.
func New(cfg Config) *Service {
	cfg.fill()
	rec := cfg.Store.Recover()
	pending := 0
	for _, rj := range rec.Jobs {
		if !rj.State.Terminal() {
			pending++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg: cfg,
		// The queue admits every replayed job on top of the configured
		// capacity, so a crash under full load can never refuse its own
		// backlog at boot.
		queue:      newQueue(cfg.QueueCapacity + pending),
		cache:      newCache(cfg.CacheCapacity),
		st:         cfg.Store,
		baseCtx:    ctx,
		baseCancel: cancel,
		runFn:      cfg.RunFunc,
		log:        cfg.Logger,
		tel:        newTelemetry(),
		started:    time.Now(),
		jobs:       newRegistry[*Job]("j", cfg.NodeID, ErrNotFound),
		sweeps:     newRegistry[*Sweep]("sw", cfg.NodeID, ErrSweepNotFound),
	}
	// Route per-curve solver tallies into the iterations histogram. The
	// registration is process-global, like TotalSolveTelemetry; the newest
	// service wins, which only matters to tests creating several.
	sram.RegisterSolveObserver(s.tel.rootIters)
	// Replay recovered tenant usage, then persist future changes. The
	// replay precedes OnUsage so boot does not re-journal what it just read.
	for name, u := range rec.Tenants {
		cfg.Tenants.SetUsage(name, u)
	}
	cfg.Tenants.OnUsage(func(name string, u TenantUsage) {
		if err := s.st.AppendTenant(name, u); err != nil {
			s.appendErrs.Add(1)
			s.log.Error("persist tenant usage failed", "tenant", name, "err", err)
		}
	})
	for key, payload := range rec.Results {
		s.cache.put(key, payload, costFromPayload(payload))
	}
	for _, rj := range rec.Jobs {
		s.restore(rj, rec.Results)
	}
	// Terminal sweeps restore before the pool starts; interrupted ones
	// restart their controllers after it, so their point jobs have workers.
	var resume []*Sweep
	for _, rs := range rec.Sweeps {
		if sw := s.restoreSweepRec(rs); sw != nil {
			resume = append(resume, sw)
		}
	}
	s.pool = startPool(cfg.Workers, s.queue, s.execute)
	for _, sw := range resume {
		s.sweepWG.Add(1)
		go s.runSweep(sw)
	}
	return s
}

// restoreSweepRec re-creates one recovered sweep. Terminal sweeps come back
// as-is (their persisted payload and trace re-attached); a sweep that was
// running at crash time returns non-nil and the caller restarts its
// controller once the pool is up — completed points answer from the
// restored cache, queued recovered point jobs are adopted by key, and only
// the remainder re-runs.
func (s *Service) restoreSweepRec(rs RecoveredSweep) *Sweep {
	s.sweeps.observe(rs.ID)
	var spec SweepSpec
	if err := json.Unmarshal(rs.Spec, &spec); err != nil {
		s.log.Warn("recovery: dropping sweep with undecodable spec", "sweep", rs.ID, "err", err)
		return nil
	}
	if err := spec.Normalize(); err != nil {
		s.log.Warn("recovery: dropping sweep with invalid spec", "sweep", rs.ID, "err", err)
		return nil
	}
	points, err := spec.Points()
	if err != nil {
		s.log.Warn("recovery: dropping sweep with unplannable grid", "sweep", rs.ID, "err", err)
		return nil
	}
	if rs.State.Terminal() {
		s.sweeps.add(rs.ID, restoreSweep(rs, spec, points))
		return nil
	}
	s.replayed++
	sw := s.newSweep(rs.ID, spec, rs.Key, rs.Tenant, points, obsv.TraceContext{})
	sw.created = rs.Created
	s.sweeps.add(sw.ID, sw)
	return sw
}

// restore re-creates one recovered job. Replay never appends a fresh
// submit record — the store already holds one — but re-run jobs do append
// their new transitions, so a second crash replays from the furthest state.
func (s *Service) restore(rj RecoveredJob, results map[string]json.RawMessage) {
	s.jobs.observe(rj.ID)
	var spec JobSpec
	if err := json.Unmarshal(rj.Spec, &spec); err != nil {
		s.log.Warn("recovery: dropping job with undecodable spec", "job", rj.ID, "err", err)
		return
	}
	// Re-apply the parallelism cap: the journal may predate a config change.
	// Harmless for correctness (the cache key ignores the field and results
	// are parallelism-independent), purely a resource bound.
	if spec.Parallelism > s.cfg.MaxJobParallelism {
		spec.Parallelism = s.cfg.MaxJobParallelism
	}
	if rj.State.Terminal() {
		var res json.RawMessage
		if rj.State == StateDone {
			res = results[rj.Key]
		}
		s.jobs.add(rj.ID, restoreJob(rj, spec, res))
		return
	}
	s.replayed++
	j := s.newJob(rj.ID, spec, rj.Key, rj.Tenant, obsv.TraceContext{})
	payload, cached := s.cache.get(rj.Key)
	if cached && rj.Trace != nil {
		// The job finished its run and journaled its trace and result; only
		// its done record was lost. It is done with its own timeline, not
		// answered from the cache.
		j.rawTrace = rj.Trace
	}
	s.jobs.add(j.ID, j)
	switch {
	case j.rawTrace != nil:
		j.finish(StateDone, payload, "")
	case cached: // an identical spec completed before the crash
		j.finishCached(payload)
	default:
		if err := s.queue.tryEnqueue(j); err != nil {
			// Structurally impossible (capacity covers the backlog), but a
			// lost job must still surface as failed rather than queued forever.
			j.finish(StateFailed, nil, "recovery enqueue: "+err.Error())
		}
	}
}

// onJobState persists every committed job transition, logs it with
// structured fields, and feeds the latency histograms: the queued→running
// edge observes queue wait, the terminal edge observes run duration.
func (s *Service) onJobState(j *Job, state State, errMsg string, at time.Time) {
	created, started := j.timestamps()
	switch {
	case state == StateRunning:
		s.tel.queueWait.Observe(at.Sub(created).Seconds())
		s.log.Debug("job state", "job", j.ID, "state", state)
	case state.Terminal():
		if !started.IsZero() {
			s.tel.jobDuration.Observe(at.Sub(started).Seconds())
		}
		// Attribute the simulations to the submitting tenant; the counter
		// has stopped by the time a terminal state commits.
		if j.Tenant != "" {
			s.cfg.Tenants.AddSims(j.Tenant, j.Sims())
		}
		if errMsg != "" {
			s.log.Info("job finished", "job", j.ID, "state", state, "sims", j.Sims(), "err", errMsg)
		} else {
			s.log.Info("job finished", "job", j.ID, "state", state, "sims", j.Sims())
		}
	}
	if err := s.st.AppendState(j.ID, state, errMsg, at); err != nil {
		s.appendErrs.Add(1)
		s.log.Error("persist state failed", "job", j.ID, "state", state, "err", err)
	}
}

// Submit validates and enqueues a job on behalf of the context's tenant
// (see WithTenant), joining the context's distributed trace (see
// obsv.WithTraceContext) when it carries one. A spec whose content address
// is cached is answered immediately: the returned job is already done,
// flagged cached, and cost zero additional simulations. Backpressure and
// drain are reported as ErrQueueFull and ErrDraining. Rate limiting happens
// at the HTTP layer, before this call.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	// Cap intra-job parallelism so Workers concurrent jobs cannot
	// oversubscribe the machine. Done after Normalize and before Key — but
	// Key ignores the field anyway, so capped and uncapped submissions of
	// the same work share one cache entry.
	if spec.Parallelism > s.cfg.MaxJobParallelism {
		spec.Parallelism = s.cfg.MaxJobParallelism
	}
	key := spec.Key()
	id := s.jobs.mint()
	raw, err := json.Marshal(spec) // normalized: the canonical persisted form
	if err != nil {
		return nil, fmt.Errorf("service: marshal spec: %w", err)
	}
	tenant, tc := TenantFrom(ctx).Name(), obsv.TraceContextFrom(ctx)

	if payload, ok := s.cache.get(key); ok {
		return s.answerCached(s.newJob(id, spec, key, tenant, tc), raw, payload, "cache.hit"), nil
	}
	// Cluster read-through: before spending a worker, ask the peers whether
	// any of them already computed this key. Determinism makes an adopted
	// payload byte-identical to a local run, so it is cached and persisted
	// exactly like one.
	if s.cfg.RemoteCache != nil {
		if payload, ok := s.cfg.RemoteCache(key); ok {
			s.cache.put(key, payload, costFromPayload(payload))
			if perr := s.st.AppendResult(key, payload); perr != nil {
				s.appendErrs.Add(1)
				s.log.Error("persist remote result failed", "key", key, "err", perr)
			}
			s.remoteHits.Add(1)
			return s.answerCached(s.newJob(id, spec, key, tenant, tc), raw, payload, "cache.remote_hit"), nil
		}
	}

	if s.draining.Load() {
		return nil, ErrDraining
	}
	j := s.newJob(id, spec, key, tenant, tc)
	// The submit record goes to the journal before the job can reach a
	// worker, so replay never sees a transition for an unknown job. A
	// rejected enqueue is voided with a drop record; a crash between the
	// two merely re-runs a job the client saw refused — harmless, because
	// specs are deterministic.
	s.persistSubmit(j, raw, false)
	s.jobs.add(j.ID, j)
	if err := s.queue.tryEnqueue(j); err != nil {
		s.jobs.remove(j.ID)
		if derr := s.st.AppendDrop(j.ID); derr != nil {
			s.appendErrs.Add(1)
			s.log.Error("persist drop failed", "job", j.ID, "err", derr)
		}
		return nil, err
	}
	return j, nil
}

// answerCached finishes a freshly minted job with a cached payload, marking
// its trace with the span naming where the payload came from.
func (s *Service) answerCached(j *Job, raw, payload json.RawMessage, span string) *Job {
	j.trace.Add(span, -1, j.created, time.Now())
	s.persistSubmit(j, raw, true)
	j.finishCached(payload)
	s.jobs.add(j.ID, j)
	return j
}

// SubmitSweep validates a sweep spec, plans its grid, and starts the
// controller that drives the point jobs, on behalf of the context's tenant.
// Fairness for the whole grid (one token per point) is charged at the HTTP
// layer before this call, exactly like batch submits. When the context
// carries a distributed trace, the sweep (and through it every point job)
// adopts its trace ID, and its span ID — the router's dispatch span — is
// recorded on the root sweep span so the router-side reassembly can graft
// this shard's tree in place. The returned sweep is already tracked.
func (s *Service) SubmitSweep(ctx context.Context, spec SweepSpec) (*Sweep, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	// Cap intra-point parallelism once, in the planner's base, so every
	// point job inherits it (Submit re-caps defensively; keys are unaffected).
	if spec.Base.Parallelism > s.cfg.MaxJobParallelism {
		spec.Base.Parallelism = s.cfg.MaxJobParallelism
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	key := spec.Key()
	id := s.sweeps.mint()
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service: marshal sweep spec: %w", err)
	}
	sw := s.newSweep(id, spec, key, TenantFrom(ctx).Name(), points, obsv.TraceContextFrom(ctx))
	if perr := s.st.AppendSweep(id, raw, key, sw.Tenant, sw.created); perr != nil {
		s.appendErrs.Add(1)
		s.log.Error("persist sweep submit failed", "sweep", id, "err", perr)
	}
	s.sweeps.add(id, sw)
	s.sweepWG.Add(1)
	go s.runSweep(sw)
	return sw, nil
}

// onSweepState persists every committed sweep transition. The terminal
// payload rides the terminal record: the aggregate embeds nondeterministic
// job IDs, so it is journal state, never a content-addressed cache entry.
func (s *Service) onSweepState(sw *Sweep, state State, errMsg string, result json.RawMessage, at time.Time) {
	if state.Terminal() {
		if errMsg != "" {
			s.log.Info("sweep finished", "sweep", sw.ID, "state", state, "err", errMsg)
		} else {
			s.log.Info("sweep finished", "sweep", sw.ID, "state", state, "points", len(sw.points))
		}
	}
	if err := s.st.AppendSweepState(sw.ID, state, errMsg, result, at); err != nil {
		s.appendErrs.Add(1)
		s.log.Error("persist sweep state failed", "sweep", sw.ID, "state", state, "err", err)
	}
}

// GetSweep returns a sweep by ID.
func (s *Service) GetSweep(id string) (*Sweep, error) { return s.sweeps.get(id) }

// Sweeps returns every known sweep in submission order.
func (s *Service) Sweeps() []*Sweep { return s.sweeps.list() }

// persistSubmit appends the job's submit record, logging (not failing) on
// store errors: the service prefers availability over durability.
func (s *Service) persistSubmit(j *Job, raw json.RawMessage, cached bool) {
	if err := s.st.AppendSubmit(j.ID, raw, j.Key, j.Tenant, cached, j.created); err != nil {
		s.appendErrs.Add(1)
		s.log.Error("persist submit failed", "job", j.ID, "err", err)
	}
}

// CachedResult peeks the result cache for a content key without touching
// recency or the hit/miss counters — it serves peer lookups (GET
// /v1/cache/{key}), which must not skew the local cache telemetry.
func (s *Service) CachedResult(key string) (json.RawMessage, bool) {
	return s.cache.peek(key)
}

// Get returns a job by ID.
func (s *Service) Get(id string) (*Job, error) { return s.jobs.get(id) }

// Jobs returns every known job in submission order.
func (s *Service) Jobs() []*Job { return s.jobs.list() }

// Draining reports whether the service has stopped accepting jobs.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the service down: intake stops (submits return
// ErrDraining), queued and running jobs are allowed to finish, and the
// call returns when the pool is idle or ctx fires — in which case every
// job still in flight is cancelled and the error reports the abort.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()
	if s.pool.wait(ctx) {
		// Workers are idle; sweep controllers can only be finishing their
		// bookkeeping or failing a pending submit with ErrDraining ("resume
		// by resubmitting — completed points answer from cache").
		done := make(chan struct{})
		go func() { s.sweepWG.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.baseCancel()
			<-done
			return fmt.Errorf("service: drain aborted: %w", ctx.Err())
		}
	}
	// Deadline hit: hard-cancel whatever is still running and give the
	// workers a moment to unwind at their next checkpoint.
	s.baseCancel()
	s.pool.wait(context.Background())
	s.sweepWG.Wait() // controllers observe the base cancel and finish
	return fmt.Errorf("service: drain aborted: %w", ctx.Err())
}

// execute runs one dequeued job on a pool worker. Panics in estimator code
// are contained here: the job fails, the worker survives.
func (s *Service) execute(j *Job) {
	if !j.markRunning() {
		return // cancelled while queued
	}
	j.addQueueWaitSpan()
	defer func() {
		if r := recover(); r != nil {
			j.finish(StateFailed, nil, fmt.Sprintf("panic: %v", r))
			s.persistTrace(&j.lifecycle)
		}
	}()

	// Thread the telemetry carriers into the runner: the span trace, the
	// diagnostic-event emitter (feeding the job's SSE ring), the health
	// monitor (violations stream to SSE as `health` events and count into
	// /metrics as they fire; the deterministic report lands in the result),
	// and the service histograms the estimator observes into. None of them
	// affect the computed result.
	ctx := obsv.WithTrace(j.ctx, j.trace)
	ctx = obsv.WithEmitter(ctx, j.publish)
	ctx = obsv.WithHealth(ctx, obsv.NewHealthMonitor(obsv.HealthConfig{}, func(v obsv.HealthViolation) {
		j.publish("health", v)
		s.tel.healthViolation(v.Rule)
	}))
	ctx = withRunHooks(ctx, runHooks{
		indicatorHist: s.tel.indicator,
		// Warm-chained points resolve their predecessor's payload from the
		// local cache, falling back to the cluster read-through (point i-1
		// may have computed on another shard).
		warmResolver: func(key string) (json.RawMessage, bool) {
			if p, ok := s.cache.peek(key); ok {
				return p, true
			}
			if s.cfg.RemoteCache != nil {
				return s.cfg.RemoteCache(key)
			}
			return nil, false
		},
	})
	runCtx, runSpan := obsv.StartSpan(ctx, "run", obsv.S("job", j.ID))

	res, err := s.runFn(runCtx, j.Spec, j.counter)
	runSpan.SetAttr(obsv.I("sims", j.Sims()))
	runSpan.End()

	var payload json.RawMessage
	if res != nil {
		b, merr := json.Marshal(res)
		if merr != nil {
			j.finish(StateFailed, nil, "marshal result: "+merr.Error())
			s.persistTrace(&j.lifecycle)
			return
		}
		payload = b
	}
	if err != nil {
		// The job is canceled only when its own context was (client DELETE,
		// sweep cancel, or drain abort); any other runner error fails it.
		// Either way the partial result is kept for inspection but never
		// cached. Partial payloads are deliberately not persisted either — a
		// restored job carries its error but no payload.
		state := StateFailed
		if j.ctx.Err() != nil {
			state = StateCanceled
		}
		j.finish(state, payload, err.Error())
		s.persistTrace(&j.lifecycle)
		return
	}
	_, pspan := obsv.StartSpan(ctx, "persist")
	s.cache.put(j.Key, payload, res.Cost.Total)
	pspan.End()
	// Journal order: trace, result, done. A crash after the result record
	// replays the job as running and answers it from the restored cache;
	// the trace ahead of it keeps the job's engine spans in that window.
	s.persistTrace(&j.lifecycle)
	if perr := s.st.AppendResult(j.Key, payload); perr != nil {
		s.appendErrs.Add(1)
		s.log.Error("persist result failed", "job", j.ID, "err", perr)
	}
	j.finish(StateDone, payload, "")
}

// persistTrace appends a finished job's or sweep's span timeline. Traces
// ride the journal keyed by ID — wall-clock data never enters the content-
// addressed result set, so cache soundness is untouched.
func (s *Service) persistTrace(l *lifecycle) {
	payload := l.TracePayload()
	if payload == nil {
		return
	}
	if err := s.st.AppendTrace(l.ID, payload); err != nil {
		s.appendErrs.Add(1)
		s.log.Error("persist trace failed", "id", l.ID, "err", err)
	}
}

// Metrics is the expvar-style snapshot served at /metrics.
type Metrics struct {
	Jobs          map[State]int `json:"jobs"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Workers       int           `json:"workers"`
	WorkersBusy   int64         `json:"workers_busy"`
	CacheHits     int64         `json:"cache_hits"`
	CacheMisses   int64         `json:"cache_misses"`
	CacheSize     int           `json:"cache_size"`
	CacheHitRate  float64       `json:"cache_hit_rate"`
	// CacheEvictions / CacheEvictedCost expose the cost-weighted eviction
	// policy: evicted-cost is the total simulations the service would have
	// to re-spend if every evicted entry were requested again.
	CacheEvictions   int64 `json:"cache_evictions"`
	CacheEvictedCost int64 `json:"cache_evicted_cost"`
	// RemoteCacheHits counts submits answered by the cluster read-through
	// (a peer shard's cache) instead of local work.
	RemoteCacheHits int64 `json:"remote_cache_hits,omitempty"`
	SimsTotal       int64 `json:"sims_total"`
	// Solver effort underneath the indicator calls, process-wide: how many
	// half-cell root solves ran and how many Illinois iterations they took.
	SolverRootSolves int64 `json:"solver_root_solves"`
	SolverIters      int64 `json:"solver_iters"`
	// Lane occupancy of the batched indicator kernel, process-wide: slots
	// issued by the lockstep solver and slots carrying a live lane.
	LaneSlots    int64 `json:"lane_slots"`
	LaneOccupied int64 `json:"lane_occupied"`
	// Pipelined stage-2 execution, process-wide: barrier windows completed
	// by the double-buffered driver, wall-clock seconds spent generating the
	// next batch, stalling on an unfinished generation, and settling
	// barriers, plus the derived share of generation hidden behind
	// settlement. Observational (timings live here, never in results).
	PipelineBatches       int64   `json:"pipeline_batches"`
	PipelineGenSeconds    float64 `json:"pipeline_gen_seconds"`
	PipelineStallSeconds  float64 `json:"pipeline_stall_seconds"`
	PipelineSettleSeconds float64 `json:"pipeline_settle_seconds"`
	PipelineOverlapFrac   float64 `json:"pipeline_overlap_frac"`
	// HealthViolations counts statistical-health watchdog rule firings by
	// rule name since process start (deterministic and wall-clock rules
	// alike — this is the alerting surface, not the cached verdict).
	HealthViolations map[string]int64 `json:"health_violations,omitempty"`
	Draining         bool             `json:"draining"`
	// UptimeSeconds and Build identify the serving process.
	UptimeSeconds float64   `json:"uptime_seconds"`
	Build         BuildInfo `json:"build"`
	// ReplayedJobs counts jobs re-enqueued (or re-answered from the
	// restored cache) during boot recovery.
	ReplayedJobs int `json:"replayed_jobs,omitempty"`
	// Store carries the persistence counters; absent without a data dir.
	Store *StoreStats `json:"store,omitempty"`
	// Sweeps counts known sweeps by state; the point/warm/saved counters
	// aggregate over every completed sweep: points driven to completion,
	// points seeded from a predecessor, and the estimated simulations those
	// warm starts avoided.
	Sweeps          map[State]int `json:"sweeps,omitempty"`
	SweepPointsDone int64         `json:"sweep_points_done,omitempty"`
	SweepWarmPoints int64         `json:"sweep_warm_points,omitempty"`
	SweepSimsSaved  int64         `json:"sweep_sims_saved,omitempty"`
	// NodeID is the shard name when the service runs as a cluster member.
	NodeID string `json:"node_id,omitempty"`
	// Tenants is the per-tenant usage snapshot; absent with auth off.
	Tenants map[string]TenantView `json:"tenants,omitempty"`
}

// BuildInfo identifies the running binary: toolchain version and, when the
// binary was built inside a VCS checkout, the revision stamped by the go
// tool.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

var (
	buildInfoOnce sync.Once
	buildInfo     BuildInfo
)

// ReadBuildInfo reports the process build identity (cached after first use).
func ReadBuildInfo() BuildInfo {
	buildInfoOnce.Do(func() {
		buildInfo.GoVersion = runtime.Version()
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, kv := range bi.Settings {
				switch kv.Key {
				case "vcs.revision":
					buildInfo.Revision = kv.Value
				case "vcs.time":
					buildInfo.VCSTime = kv.Value
				case "vcs.modified":
					buildInfo.Modified = kv.Value == "true"
				}
			}
		}
	})
	return buildInfo
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.started) }

// Snapshot assembles the current metrics.
func (s *Service) Snapshot() Metrics {
	m := Metrics{
		Jobs:          map[State]int{},
		QueueDepth:    s.queue.depth(),
		QueueCapacity: s.queue.capacity(),
		Workers:       s.pool.workers,
		WorkersBusy:   s.pool.busy.Load(),
		Draining:      s.draining.Load(),
		ReplayedJobs:  s.replayed,
		UptimeSeconds: s.Uptime().Seconds(),
		Build:         ReadBuildInfo(),
		NodeID:        s.cfg.NodeID,
		Tenants:       s.cfg.Tenants.Views(),
	}
	m.RemoteCacheHits = s.remoteHits.Load()
	if _, nop := s.st.(nopStore); !nop {
		st := s.st.Stats()
		st.AppendErrors = s.appendErrs.Load()
		m.Store = &st
	}
	cs := s.cache.stats()
	m.CacheHits, m.CacheMisses, m.CacheSize = cs.hits, cs.misses, cs.size
	m.CacheEvictions, m.CacheEvictedCost = cs.evictions, cs.evictedCost
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(lookups)
	}
	m.HealthViolations = s.tel.healthSnapshot()
	m.SolverRootSolves, m.SolverIters = sram.TotalSolveTelemetry()
	m.LaneSlots, m.LaneOccupied = sram.TotalLaneTelemetry()
	ps := montecarlo.TotalPipelineStats()
	m.PipelineBatches = ps.Batches
	m.PipelineGenSeconds = float64(ps.GenNS) / 1e9
	m.PipelineStallSeconds = float64(ps.StallNS) / 1e9
	m.PipelineSettleSeconds = float64(ps.SettleNS) / 1e9
	m.PipelineOverlapFrac = ps.OverlapFraction()
	for _, j := range s.jobs.list() {
		m.Jobs[j.State()]++
		m.SimsTotal += j.Sims()
	}
	if sweeps := s.sweeps.list(); len(sweeps) > 0 {
		m.Sweeps = map[State]int{}
		for _, sw := range sweeps {
			m.Sweeps[sw.State()]++
		}
	}
	m.SweepPointsDone = s.sweepPointsDone.Load()
	m.SweepWarmPoints = s.sweepWarmPoints.Load()
	m.SweepSimsSaved = s.sweepSimsSaved.Load()
	return m
}
