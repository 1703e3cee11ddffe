package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"ecripse/internal/obsv"
)

// State is a job or sweep lifecycle state.
type State string

// Lifecycle: queued → running → one of the terminal states. A queued job or
// sweep that is cancelled goes straight to canceled without running.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// lifecycle is the state machine jobs and sweeps share. A sweep is a job
// with child jobs: its point jobs hang off children, and Cancel reaches them
// too. All mutable fields are guarded by mu.
type lifecycle struct {
	ID  string
	Key string // content address of the spec
	// Tenant names the authenticated API client that submitted the work ("" with
	// auth off). Set before tracking, then read-only — and deliberately not
	// part of the spec, so multi-tenant traffic still shares one
	// content-addressed cache entry per distinct spec.
	Tenant string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on entering a terminal state

	// trace records the span timeline; events buffers SSE events. rawTrace
	// holds the persisted timeline of a recovered entry instead.
	trace    *obsv.Trace
	events   *eventRing
	rawTrace json.RawMessage

	// onState observes every committed transition (the service persists it);
	// result is the terminal payload. It is invoked outside the lock by the
	// goroutine that performed the transition; the state machine admits no
	// concurrent transitions, so calls are sequential per entry.
	onState func(state State, errMsg string, result json.RawMessage, at time.Time)
	// onFinish runs once a terminal state has committed, before done closes:
	// a sweep publishes its terminal SSE event there, so every subscriber sees
	// it ahead of the final "done".
	onFinish func(state State, errMsg string)

	mu       sync.Mutex
	state    State
	errMsg   string
	result   json.RawMessage
	children []*Job
	created  time.Time
	started  time.Time
	finished time.Time
}

// init readies a queued lifecycle whose context descends from parent. Its
// trace carries a fresh distributed trace ID until joinTrace adopts a
// propagated one.
func (l *lifecycle) init(parent context.Context, id, key, tenant string, eventCap int) {
	l.ID, l.Key, l.Tenant = id, key, tenant
	l.ctx, l.cancel = context.WithCancel(parent)
	l.done = make(chan struct{})
	l.trace = obsv.NewTrace()
	l.trace.SetID(obsv.NewTraceID())
	l.events = newEventRing(eventCap)
	l.state = StateQueued
	l.created = time.Now()
}

// restore readies a terminal lifecycle rebuilt from the store, with its
// terminal payload: its context is released, its done channel closed, and
// no transition hook fires (the store knows this state — it supplied it).
func (l *lifecycle) restore(r Recovered, result json.RawMessage) {
	l.ID, l.Key, l.Tenant = r.ID, r.Key, r.Tenant
	l.ctx, l.cancel = context.WithCancel(context.Background())
	l.cancel()
	l.done = make(chan struct{})
	close(l.done)
	l.trace = obsv.NewTrace()
	l.events = newEventRing(0)
	l.rawTrace = r.Trace
	l.state, l.errMsg, l.result = r.State, r.Error, result
	l.created, l.started, l.finished = r.Created, r.Started, r.Finished
}

// joinTrace applies the span cap and joins a propagated distributed trace
// context, replacing the minted trace ID. A zero or invalid context keeps
// the minted ID.
func (l *lifecycle) joinTrace(maxSpans int, tc obsv.TraceContext) {
	l.trace.SetMaxSpans(maxSpans)
	if len(tc.TraceID) == 32 {
		l.trace.SetID(tc.TraceID)
	}
}

// State returns the current lifecycle state.
func (l *lifecycle) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Done returns a channel closed when the entry reaches a terminal state.
func (l *lifecycle) Done() <-chan struct{} { return l.done }

// Cancel requests cancellation and reports whether it had any effect (false
// once terminal). A queued entry flips to canceled immediately; a running
// one keeps the running state until its worker or controller observes the
// cancelled context — so once a job reads canceled, its simulation counter
// has stopped advancing. Children are cancelled through the same call, which
// closes their SSE streams at once instead of when the controller notices.
func (l *lifecycle) Cancel() bool {
	l.mu.Lock()
	if l.state.Terminal() {
		l.mu.Unlock()
		return false
	}
	children := l.children
	if l.state == StateQueued {
		l.terminate(StateCanceled, nil, "canceled while queued")
	} else {
		l.mu.Unlock()
		l.cancel()
	}
	for _, c := range children {
		c.Cancel()
	}
	return true
}

// markRunning transitions queued → running; it reports false when the entry
// was already cancelled (the worker or controller then skips it).
func (l *lifecycle) markRunning() bool {
	l.mu.Lock()
	if l.state != StateQueued {
		l.mu.Unlock()
		return false
	}
	l.state = StateRunning
	l.started = time.Now()
	at := l.started
	l.mu.Unlock()
	l.notify(StateRunning, "", nil, at)
	return true
}

// finish moves the entry to a terminal state with an optional payload. Later
// calls are no-ops, so a worker completing a job races safely with
// concurrent Cancel calls.
func (l *lifecycle) finish(state State, result json.RawMessage, errMsg string) {
	l.mu.Lock()
	if l.state.Terminal() {
		l.mu.Unlock()
		return
	}
	l.terminate(state, result, errMsg)
}

// terminate commits a terminal state. It is called with mu held and
// releases it.
func (l *lifecycle) terminate(state State, result json.RawMessage, errMsg string) {
	l.state, l.result, l.errMsg = state, result, errMsg
	l.finished = time.Now()
	at := l.finished
	l.mu.Unlock()
	l.cancel() // release the context regardless of how the entry ended
	if l.onFinish != nil {
		l.onFinish(state, errMsg)
	}
	close(l.done)
	l.notify(state, errMsg, result, at)
}

// notify invokes the transition observer, if any.
func (l *lifecycle) notify(state State, errMsg string, result json.RawMessage, at time.Time) {
	if l.onState != nil {
		l.onState(state, errMsg, result, at)
	}
}

// adopt records a child job; Cancel reaches it from then on.
func (l *lifecycle) adopt(j *Job) {
	l.mu.Lock()
	l.children = append(l.children, j)
	l.mu.Unlock()
}

// publish buffers one event for SSE consumers. It never blocks.
func (l *lifecycle) publish(kind string, data any) { l.events.publish(kind, data) }

// DiagSince drains buffered events at or after cursor. dropped counts events
// the cursor missed because the ring evicted them (slow consumer); next is
// the cursor for the following call.
func (l *lifecycle) DiagSince(cursor uint64) (events []DiagEvent, dropped uint64, next uint64) {
	return l.events.since(cursor)
}

// TracePayload renders the span timeline as JSON — an object carrying the
// distributed trace ID plus the spans ({"trace_id": ..., "spans": [...]}) —
// using the live trace for entries run by this process, or the persisted
// timeline of a recovered one. Nil when neither exists yet.
func (l *lifecycle) TracePayload() json.RawMessage {
	l.mu.Lock()
	raw := l.rawTrace
	l.mu.Unlock()
	if raw != nil {
		return raw
	}
	if l.trace.Len() == 0 {
		return nil
	}
	b, err := json.Marshal(tracePayload{TraceID: l.trace.ID(), Spans: l.trace.Spans()})
	if err != nil {
		return nil
	}
	return b
}

// timestamps returns the creation and start times under the lock.
func (l *lifecycle) timestamps() (created, started time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.created, l.started
}

// stamp formats a lifecycle timestamp for a view ("" while unset).
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// registry holds one kind's entries — jobs or sweeps — by ID and in
// submission order, and mints their IDs: the prefix plus a six-digit
// counter, namespaced by the node under a cluster ("s1-j000001").
type registry[T comparable] struct {
	prefix   string
	node     string
	notFound error

	mu    sync.Mutex
	byID  map[string]T
	order []T
	next  int64
}

func newRegistry[T comparable](prefix, node string, notFound error) *registry[T] {
	return &registry[T]{prefix: prefix, node: node, notFound: notFound, byID: make(map[string]T)}
}

// mint returns the next ID.
func (r *registry[T]) mint() string {
	r.mu.Lock()
	r.next++
	n := r.next
	r.mu.Unlock()
	id := fmt.Sprintf("%s%06d", r.prefix, n)
	if r.node != "" {
		id = r.node + "-" + id
	}
	return id
}

// observe advances the counter past a recovered ID, so IDs minted after a
// restart never collide with journaled ones. The counter follows the last
// occurrence of the prefix, whatever node name precedes it.
func (r *registry[T]) observe(id string) {
	if i := strings.LastIndex(id, r.prefix); i >= 0 {
		id = id[i:]
	}
	var n int64
	if _, err := fmt.Sscanf(id, r.prefix+"%d", &n); err == nil && n > r.next {
		r.next = n
	}
}

func (r *registry[T]) add(id string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[id] = v
	r.order = append(r.order, v)
}

func (r *registry[T]) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byID[id]
	if !ok {
		return
	}
	delete(r.byID, id)
	for i, o := range r.order {
		if o == v {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// get returns an entry by ID, or the registry's not-found error.
func (r *registry[T]) get(id string) (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byID[id]
	if !ok {
		return v, r.notFound
	}
	return v, nil
}

// list returns every entry in submission order.
func (r *registry[T]) list() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.order...)
}

// find returns the first entry in submission order that matches.
func (r *registry[T]) find(match func(T) bool) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.order {
		if match(v) {
			return v, true
		}
	}
	var zero T
	return zero, false
}
