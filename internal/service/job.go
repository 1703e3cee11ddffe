package service

import (
	"encoding/json"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
)

// Job is one submitted yield-estimation job. Its lifecycle is shared with
// sweeps; the simulation counter is read lock-free (it is atomic) so
// progress can be observed while the job runs.
type Job struct {
	lifecycle
	Spec JobSpec

	counter *montecarlo.Counter
	cached  bool // guarded by mu
}

// newJob creates a queued job on the service's base context, joined to the
// propagated trace context tc, whose transitions the service persists.
func (s *Service) newJob(id string, spec JobSpec, key, tenant string, tc obsv.TraceContext) *Job {
	j := &Job{Spec: spec, counter: &montecarlo.Counter{}}
	j.init(s.baseCtx, id, key, tenant, s.cfg.EventBuffer)
	j.joinTrace(s.cfg.TraceMaxSpans, tc)
	j.onState = func(state State, errMsg string, _ json.RawMessage, at time.Time) {
		s.onJobState(j, state, errMsg, at)
	}
	return j
}

// restoreJob rebuilds a terminal job from the persistent store.
func restoreJob(r RecoveredJob, spec JobSpec, result json.RawMessage) *Job {
	j := &Job{Spec: spec, counter: &montecarlo.Counter{}, cached: r.Cached}
	j.restore(r.Recovered, result)
	return j
}

// Sims returns the transistor-level simulations consumed so far.
func (j *Job) Sims() int64 { return j.counter.Count() }

// IsCached reports whether the job was answered from the result cache.
func (j *Job) IsCached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Result returns the marshaled result payload (nil while unfinished).
func (j *Job) Result() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// finishCached marks a freshly created job as answered from the cache.
func (j *Job) finishCached(result json.RawMessage) {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
	j.finish(StateDone, result, "")
}

// addQueueWaitSpan synthesizes the queue-wait span from the job's own
// timestamps, once the transition to running has stamped them.
func (j *Job) addQueueWaitSpan() {
	created, started := j.timestamps()
	if started.IsZero() {
		return
	}
	j.trace.Add("queue.wait", -1, created, started)
}

// View is the JSON representation of a job served by the API.
type View struct {
	ID         string          `json:"id"`
	State      State           `json:"state"`
	Cached     bool            `json:"cached,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
	Error      string          `json:"error,omitempty"`
	Sims       int64           `json:"sims"`
	CreatedAt  string          `json:"created_at"`
	StartedAt  string          `json:"started_at,omitempty"`
	FinishedAt string          `json:"finished_at,omitempty"`
	Spec       JobSpec         `json:"spec"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Snapshot renders the job for the API. withResult=false omits the payload
// (job listings stay light even when results carry long series).
func (j *Job) Snapshot(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:         j.ID,
		State:      j.state,
		Cached:     j.cached,
		Tenant:     j.Tenant,
		Error:      j.errMsg,
		Sims:       j.counter.Count(),
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),
		StartedAt:  stamp(j.started),
		FinishedAt: stamp(j.finished),
		Spec:       j.Spec,
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// The HTTP layer's resource methods (see Server).

func (j *Job) view(detail bool) any { return j.Snapshot(detail) }

func (j *Job) progress() any {
	return struct {
		ID    string `json:"id"`
		State State  `json:"state"`
		Sims  int64  `json:"sims"`
	}{j.ID, j.State(), j.Sims()}
}

// sseName streams statistical-health verdicts under their own event name, so
// dashboards can subscribe to violations without parsing every convergence
// diagnostic; everything else is a "diag".
func (j *Job) sseName(kind string) string {
	if kind == "health" {
		return kind
	}
	return "diag"
}

func (j *Job) traceSpans(*Service) (string, []obsv.SpanView) {
	tp, _ := decodeTrace(j.TracePayload())
	return tp.TraceID, tp.Spans
}
