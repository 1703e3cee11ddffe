package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecripse/internal/obsv"
	"ecripse/internal/service"
)

// Config assembles a Router.
type Config struct {
	// Shards is the fixed cluster membership (at least one entry; at most
	// one may be Local). Names must be unique.
	Shards []Shard

	// VirtualNodes is the ring's per-node point count (0 selects
	// DefaultVirtualNodes).
	VirtualNodes int

	// Store journals every dispatched job (submit, placement, terminal
	// state) so a router restart keeps routing old IDs and a dead shard's
	// jobs can be re-enqueued from the journal. Nil keeps the dispatch
	// table in process memory only.
	Store service.Store

	// Tenants enables API-key auth and fairness enforcement at the router,
	// the cluster's entry point. Forwarded traffic to the shards carries the
	// client's credentials but is never re-charged.
	Tenants *service.Tenants

	// MaxBodyBytes / MaxBatchJobs mirror service.Server's request bounds
	// (0 selects the service defaults).
	MaxBodyBytes int64
	MaxBatchJobs int

	// ProbeInterval is the health-probe period (0 selects 2s; negative
	// disables the prober — tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// ProbeFailures is the consecutive-failure threshold that marks a shard
	// down (0 selects 3).
	ProbeFailures int
	// ProbeTimeout bounds one /healthz probe (0 selects 1s).
	ProbeTimeout time.Duration

	// Logger receives routing and failover logs (nil selects slog.Default).
	Logger *slog.Logger
}

// routedJob is one dispatched job in the router's ownership table. ID is the
// client-visible ID (as minted by the shard that first accepted the job);
// RemoteID is the job's ID on its current shard and differs from ID only
// after a failover re-enqueue. Placement fields are guarded by Router.mu.
type routedJob struct {
	ID     string
	Key    string
	Spec   json.RawMessage // normalized spec, the redispatch payload
	Tenant string

	Shard    string
	RemoteID string
	Terminal bool
}

// Router is the cluster dispatch layer, an http.Handler serving the full
// single-node ecripsed API across N shards. See the package comment for the
// topology; see NewRouter for construction.
type Router struct {
	ring    *Ring
	targets map[string]*target
	names   []string // sorted shard names
	local   string   // name of the Local shard, "" in the dedicated router
	tenants *service.Tenants
	st      service.Store
	log     *slog.Logger
	mux     *http.ServeMux

	maxBody  int64
	maxBatch int

	probeInterval time.Duration
	probeFails    int
	probeTimeout  time.Duration
	probeStop     chan struct{}
	probeWG       sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*routedJob
	order []*routedJob // dispatch order, for listing dead-shard jobs

	// sweepTraces holds the router's own span tree (route + dispatch spans)
	// for recently dispatched sweeps, keyed by sweep ID and bounded FIFO at
	// maxSweepTraces; GET /v1/sweeps/{id}/trace grafts the owning shard's
	// reassembled tree under the successful dispatch span.
	sweepTraces     map[string]*routedSweepTrace
	sweepTraceOrder []string

	// counters surface at /metrics.
	forwards     map[string]*atomic.Int64 // dispatches per shard
	cacheRouted  atomic.Int64             // submits steered to a cache holder
	redispatched atomic.Int64             // jobs moved off a dead shard
	proxyErrs    atomic.Int64             // shard requests that failed in transit
	downEvents   atomic.Int64             // up→down transitions observed
	appendErrs   atomic.Int64             // journal appends that failed
}

// NewRouter validates the shard set, replays the dispatch journal (when a
// store is configured) and returns a ready handler. Call Start to run the
// health prober and Close to stop it.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = service.DefaultMaxBodyBytes
	}
	if cfg.MaxBatchJobs <= 0 {
		cfg.MaxBatchJobs = service.DefaultMaxBatchJobs
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	// Shard traffic fails fast: shards are LAN peers and clients retry
	// router requests, so a stuck shard should not hold them for long.
	hc := &http.Client{Timeout: 30 * time.Second}

	rt := &Router{
		ring:          NewRing(cfg.VirtualNodes),
		targets:       make(map[string]*target, len(cfg.Shards)),
		tenants:       cfg.Tenants,
		st:            cfg.Store,
		log:           cfg.Logger,
		mux:           http.NewServeMux(),
		maxBody:       cfg.MaxBodyBytes,
		maxBatch:      cfg.MaxBatchJobs,
		probeInterval: cfg.ProbeInterval,
		probeFails:    cfg.ProbeFailures,
		probeTimeout:  cfg.ProbeTimeout,
		probeStop:     make(chan struct{}),
		jobs:          make(map[string]*routedJob),
		forwards:      make(map[string]*atomic.Int64, len(cfg.Shards)),
		sweepTraces:   make(map[string]*routedSweepTrace),
	}
	for _, s := range cfg.Shards {
		if s.Name == "" {
			return nil, errors.New("cluster: shard with empty name")
		}
		if _, dup := rt.targets[s.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard %q", s.Name)
		}
		if s.Local != nil {
			if rt.local != "" {
				return nil, fmt.Errorf("cluster: two local shards (%q, %q)", rt.local, s.Name)
			}
			rt.local = s.Name
		} else if s.URL == "" {
			return nil, fmt.Errorf("cluster: shard %q has neither URL nor Local handler", s.Name)
		}
		rt.targets[s.Name] = newTarget(s, hc)
		rt.names = append(rt.names, s.Name)
		rt.forwards[s.Name] = &atomic.Int64{}
		rt.ring.Add(s.Name)
	}
	sort.Strings(rt.names)

	if rt.st != nil {
		rt.recover()
	}

	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("POST /v1/jobs:batch", rt.handleBatch)
	rt.mux.HandleFunc("POST /v1/sweeps", rt.handleSweepSubmit)
	for path, notFound := range map[string]error{
		"/v1/jobs":   service.ErrNotFound,
		"/v1/sweeps": service.ErrSweepNotFound,
	} {
		rt.mux.HandleFunc("GET "+path, rt.handleList(path))
		rt.mux.HandleFunc("GET "+path+"/{id}", rt.forward(path, "", notFound))
		rt.mux.HandleFunc("GET "+path+"/{id}/events", rt.forward(path, "/events", notFound))
		rt.mux.HandleFunc("GET "+path+"/{id}/trace", rt.forward(path, "/trace", notFound))
		rt.mux.HandleFunc("DELETE "+path+"/{id}", rt.forward(path, "", notFound))
	}
	rt.mux.HandleFunc("GET /v1/cache/{key}", rt.handleCache)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	return rt, nil
}

// recover replays the dispatch journal: tenant usage back into the registry,
// then the ownership table. Jobs whose shard assignment predates an OpOwner
// record fall back to their ID prefix.
func (rt *Router) recover() {
	rec := rt.st.Recover()
	for name, u := range rec.Tenants {
		rt.tenants.SetUsage(name, u)
	}
	rt.tenants.OnUsage(func(name string, u service.TenantUsage) {
		if err := rt.st.AppendTenant(name, u); err != nil {
			rt.appendErrs.Add(1)
			rt.log.Error("persist tenant usage failed", "tenant", name, "err", err)
		}
	})
	for _, rj := range rec.Jobs {
		j := &routedJob{
			ID:       rj.ID,
			Key:      rj.Key,
			Spec:     rj.Spec,
			Tenant:   rj.Tenant,
			Terminal: rj.State.Terminal(),
		}
		if own, ok := rec.Owners[rj.ID]; ok {
			j.Shard, j.RemoteID = own.Shard, own.Remote
		} else {
			j.Shard, j.RemoteID = shardPrefix(rj.ID), rj.ID
		}
		rt.jobs[j.ID] = j
		rt.order = append(rt.order, j)
	}
	if n := len(rec.Jobs); n > 0 {
		rt.log.Info("router recovered dispatch table", "jobs", n)
	}
}

// shardPrefix extracts the shard name from a namespaced job or sweep ID
// ("s1-j000001", "s1-sw000001" → "s1"), or "" when the ID carries no
// prefix. The minted suffix never contains a '-', so shard names may.
func shardPrefix(id string) string {
	if i := strings.LastIndexByte(id, '-'); i > 0 {
		return id[:i]
	}
	return ""
}

// Start launches the health prober. No-op when probing is disabled.
func (rt *Router) Start() {
	if rt.probeInterval < 0 {
		return
	}
	rt.probeWG.Add(1)
	go rt.probeLoop()
}

// Close stops the prober. The Router keeps serving (it holds no listener);
// closing the store is the caller's job.
func (rt *Router) Close() {
	select {
	case <-rt.probeStop:
	default:
		close(rt.probeStop)
	}
	rt.probeWG.Wait()
}

// ServeHTTP authenticates /v1/* (when tenants are configured), short-
// circuits cluster-internal traffic to the local shard, then dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if rt.tenants != nil && strings.HasPrefix(r.URL.Path, "/v1/") &&
		!strings.HasPrefix(r.URL.Path, "/v1/cache/") {
		t, err := rt.tenants.Authenticate(r)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
		r = r.WithContext(service.WithTenant(r.Context(), t))
	}
	// A forwarded request was already routed by a peer's dispatch layer:
	// serve it on the local shard without re-routing (this is what stops
	// forwarding loops in the embedded mode, where every node is a router).
	if rt.local != "" && isForwarded(r) && strings.HasPrefix(r.URL.Path, "/v1/") {
		rt.targets[rt.local].local.ServeHTTP(w, r)
		return
	}
	rt.mux.ServeHTTP(w, r)
}

func isForwarded(r *http.Request) bool { return r.Header.Get(service.ForwardedHeader) != "" }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// acquireStatus maps a tenant-admission error onto its response, setting
// Retry-After for 429s exactly like the single-node server.
func acquireStatus(w http.ResponseWriter, err error) int {
	var rle *service.RateLimitError
	if errors.As(err, &rle) {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(rle.RetryAfter.Seconds())))
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

// relay copies a buffered shard response to the client: selected headers,
// status and body, verbatim.
func relay(w http.ResponseWriter, resp *bufferedResponse) {
	for _, h := range []string{"Content-Type", "Location", "Retry-After"} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// aliveTargets returns the currently-alive targets in sorted name order.
func (rt *Router) aliveTargets() []*target {
	out := make([]*target, 0, len(rt.names))
	for _, name := range rt.names {
		if t := rt.targets[name]; t.Alive() {
			out = append(out, t)
		}
	}
	return out
}

// findCached probes every alive shard's result cache for a key and returns
// the first holder in sorted name order (nil when no shard has it). The
// probes run concurrently under a short deadline — this sits on the submit
// path and must cost far less than the work it saves.
func (rt *Router) findCached(ctx context.Context, key string) *target {
	alive := rt.aliveTargets()
	if len(alive) < 2 {
		return nil // the single candidate answers its own cache on dispatch
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	hits := make([]bool, len(alive))
	var wg sync.WaitGroup
	for i, t := range alive {
		wg.Add(1)
		go func(i int, t *target) {
			defer wg.Done()
			_, hits[i] = t.cacheLookup(ctx, key)
		}(i, t)
	}
	wg.Wait()
	for i, hit := range hits {
		if hit {
			return alive[i]
		}
	}
	return nil
}

// PeerCacheLookup probes the alive *remote* shards for a cached result —
// the service.Config.RemoteCache hook of the embedded -peers mode, called on
// a local cache miss (so the local shard is deliberately excluded). First
// hit in sorted shard order wins; determinism makes every holder's payload
// byte-identical.
func (rt *Router) PeerCacheLookup(ctx context.Context, key string) (json.RawMessage, bool) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for _, name := range rt.names {
		t := rt.targets[name]
		if t.isLocal() || !t.Alive() {
			continue
		}
		if payload, ok := t.cacheLookup(ctx, key); ok {
			return payload, true
		}
	}
	return nil, false
}

// pickTarget chooses the dispatch target for a spec key: the shard that
// already holds the cached result if any does (so a repeat submit through
// any entry point is answered without recomputation), otherwise the ring
// owner. The boolean reports a cache-steered choice.
func (rt *Router) pickTarget(ctx context.Context, key string) (*target, bool) {
	owner, ok := rt.ring.Owner(key)
	if holder := rt.findCached(ctx, key); holder != nil {
		if holder.name != owner {
			rt.cacheRouted.Add(1)
			return holder, true
		}
		return holder, false
	}
	if !ok {
		return nil, false
	}
	return rt.targets[owner], false
}

// dispatch posts one normalized spec to path on first, then walks the
// key's failover order on transport errors (the window between a shard
// dying and the prober noticing). Application-level answers — including 429
// and 400 — are final and relayed as-is. Every attempt carries its own child
// span of tc in the Traceparent header, so the accepting shard joins the
// caller's trace; onTry, when set, observes each attempt.
func (rt *Router) dispatch(r *http.Request, first *target, key, path string, body []byte, tc obsv.TraceContext, onTry func(dispatchTry)) (*target, *bufferedResponse, error) {
	tried := map[string]bool{}
	try := func(t *target) (*bufferedResponse, error) {
		tried[t.name] = true
		rt.forwards[t.name].Add(1)
		child := tc.Child()
		r.Header.Set(obsv.TraceparentHeader, child.Traceparent())
		var d dispatchTry
		if onTry != nil {
			d = dispatchTry{shard: t.name, spanID: child.SpanID, start: time.Now()}
		}
		resp, err := t.do(r.Context(), http.MethodPost, path, body, r)
		if onTry != nil {
			d.end = time.Now()
			if err != nil {
				d.err = err.Error()
			} else {
				d.status = resp.status
			}
			onTry(d)
		}
		if err != nil {
			rt.proxyErrs.Add(1)
			rt.log.Warn("dispatch failed, trying successor", "shard", t.name, "path", path, "err", err)
		}
		return resp, err
	}
	if first != nil {
		if resp, err := try(first); err == nil {
			return first, resp, nil
		}
	}
	for _, name := range rt.ring.Owners(key, len(rt.names)) {
		t := rt.targets[name]
		if tried[name] || !t.Alive() {
			continue
		}
		if resp, err := try(t); err == nil {
			return t, resp, nil
		}
	}
	return nil, nil, errors.New("cluster: no shard reachable")
}

// readSpec decodes and normalizes a submitted spec at the edge (junk never
// crosses the wire), charges the tenant units() submits, and returns the
// spec's content key and canonical body. False means the refusal has been
// answered.
func (rt *Router) readSpec(w http.ResponseWriter, r *http.Request, what string, spec interface {
	Normalize() error
	Key() string
}, units func() int) (string, []byte, bool) {
	if !service.DecodeBody(w, r, rt.maxBody, what, spec) {
		return "", nil, false
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return "", nil, false
	}
	if err := rt.tenants.Acquire(service.TenantFrom(r.Context()), units()); err != nil {
		writeError(w, acquireStatus(w, err), err.Error())
		return "", nil, false
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "marshal "+what+": "+err.Error())
		return "", nil, false
	}
	return spec.Key(), raw, true
}

// accepted reports a shard answer that created (202) or answered (200) a
// submit.
func accepted(resp *bufferedResponse) bool {
	return resp.status == http.StatusAccepted || resp.status == http.StatusOK
}

// trackDispatch records an accepted job in the ownership table and journal.
func (rt *Router) trackDispatch(view *service.View, shard, key string, spec json.RawMessage, tenant string) {
	j := &routedJob{
		ID:       view.ID,
		Key:      key,
		Spec:     spec,
		Tenant:   tenant,
		Shard:    shard,
		RemoteID: view.ID,
		Terminal: view.State.Terminal(),
	}
	rt.mu.Lock()
	rt.jobs[j.ID] = j
	rt.order = append(rt.order, j)
	rt.mu.Unlock()
	if rt.st == nil {
		return
	}
	if err := rt.st.AppendSubmit(j.ID, spec, key, tenant, view.Cached, time.Now()); err != nil {
		rt.appendErrs.Add(1)
		rt.log.Error("journal dispatch failed", "job", j.ID, "err", err)
	}
	if err := rt.st.AppendOwner(j.ID, j.Shard, j.RemoteID); err != nil {
		rt.appendErrs.Add(1)
		rt.log.Error("journal placement failed", "job", j.ID, "err", err)
	}
	if j.Terminal {
		rt.journalTerminal(j, view.State, view.Error)
	}
}

// journalTerminal appends a terminal state once the router has observed it.
func (rt *Router) journalTerminal(j *routedJob, state service.State, errMsg string) {
	if rt.st == nil {
		return
	}
	if err := rt.st.AppendState(j.ID, state, errMsg, time.Now()); err != nil {
		rt.appendErrs.Add(1)
		rt.log.Error("journal terminal state failed", "job", j.ID, "err", err)
	}
}

// markTerminal folds an observed view into the ownership table, journaling
// the terminal transition the first time it is seen.
func (rt *Router) markTerminal(j *routedJob, view *service.View) {
	if j == nil || !view.State.Terminal() {
		return
	}
	rt.mu.Lock()
	already := j.Terminal
	j.Terminal = true
	rt.mu.Unlock()
	if !already {
		rt.journalTerminal(j, view.State, view.Error)
	}
}

// handleSubmit dispatches a job to the shard that already holds its cached
// result, else to the ring owner of its content key, and records the
// accepted job in the ownership table.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	key, raw, ok := rt.readSpec(w, r, "spec", &spec, func() int { return 1 })
	if !ok {
		return
	}
	first, _ := rt.pickTarget(r.Context(), key)
	// The job joins the caller's distributed trace, or one started here.
	tgt, resp, err := rt.dispatch(r, first, key, "/v1/jobs", raw, rt.traceContext(r), nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	if accepted(resp) {
		var view service.View
		if jerr := json.Unmarshal(resp.body, &view); jerr == nil {
			rt.trackDispatch(&view, tgt.name, key, raw, service.TenantFrom(r.Context()).Name())
		}
	}
	relay(w, resp)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var specs []service.JobSpec
	if !service.DecodeBody(w, r, rt.maxBody, "batch", &specs) {
		return
	}
	if len(specs) == 0 || len(specs) > rt.maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch must carry 1..%d specs (got %d)", rt.maxBatch, len(specs)))
		return
	}
	tenant := service.TenantFrom(r.Context())
	if err := rt.tenants.Acquire(tenant, len(specs)); err != nil {
		writeError(w, acquireStatus(w, err), err.Error())
		return
	}

	// One trace context covers the whole batch: set once before the fan-out,
	// so every sub-batch dispatch carries the same trace ID.
	r.Header.Set(obsv.TraceparentHeader, rt.traceContext(r).Child().Traceparent())

	// Partition the batch by ring owner, fan the sub-batches out to the
	// shards' own batch endpoints concurrently, then scatter the per-item
	// answers back into request order.
	items := make([]service.BatchItem, len(specs))
	groups := map[string][]int{} // shard → original indices
	keys := make([]string, len(specs))
	raws := make([]json.RawMessage, len(specs))
	for i := range specs {
		if err := specs[i].Normalize(); err != nil {
			items[i] = service.BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		keys[i] = specs[i].Key()
		raw, err := json.Marshal(specs[i])
		if err != nil {
			items[i] = service.BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		raws[i] = raw
		owner, ok := rt.ring.Owner(keys[i])
		if !ok {
			items[i] = service.BatchItem{Status: http.StatusBadGateway, Error: "no shard available"}
			continue
		}
		groups[owner] = append(groups[owner], i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards items writes from the group goroutines
	for shard, idxs := range groups {
		wg.Add(1)
		go func(shard string, idxs []int) {
			defer wg.Done()
			sub := make([]json.RawMessage, len(idxs))
			for i, idx := range idxs {
				sub[i] = raws[idx]
			}
			body, _ := json.Marshal(sub)
			rt.forwards[shard].Add(1)
			resp, err := rt.targets[shard].do(r.Context(), http.MethodPost, "/v1/jobs:batch", body, r)
			var got []service.BatchItem
			if err == nil && resp.status == http.StatusOK {
				if jerr := json.Unmarshal(resp.body, &got); jerr != nil || len(got) != len(idxs) {
					err = fmt.Errorf("cluster: shard %s returned a malformed batch response", shard)
				}
			} else if err == nil {
				err = fmt.Errorf("cluster: shard %s refused the batch: status %d", shard, resp.status)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rt.proxyErrs.Add(1)
				for _, idx := range idxs {
					items[idx] = service.BatchItem{Status: http.StatusBadGateway, Error: err.Error()}
				}
				return
			}
			for i, idx := range idxs {
				items[idx] = got[i]
				if got[i].Job != nil {
					rt.trackDispatch(got[i].Job, shard, keys[idx], raws[idx], tenant.Name())
				}
			}
		}(shard, idxs)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, items)
}

// route resolves a client-visible job or sweep ID to its target and remote
// ID. Jobs the router dispatched resolve through the ownership table (a
// failover re-enqueue may have moved them); every other ID — sweeps, which
// are never re-enqueued, and jobs submitted straight to a shard — routes by
// its shard prefix. An ID that names no shard answers notFound.
func (rt *Router) route(id string, notFound error) (*target, string, *routedJob, error) {
	rt.mu.Lock()
	j := rt.jobs[id]
	shard, remote := "", id
	if j != nil {
		shard, remote = j.Shard, j.RemoteID
	} else {
		shard = shardPrefix(id)
	}
	rt.mu.Unlock()
	t, ok := rt.targets[shard]
	if !ok {
		return nil, "", nil, notFound
	}
	if !t.Alive() {
		return nil, "", nil, fmt.Errorf("cluster: shard %s is down", shard)
	}
	return t, remote, j, nil
}

// forward proxies one per-ID request — GET, DELETE, trace, or the SSE
// events stream — for the collection at path to the shard owning the ID.
// Job views and traces are renamed back to the client-visible ID when a
// failover re-enqueue changed it; a sweep trace gets the router's own
// dispatch spans grafted on top.
func (rt *Router) forward(path, suffix string, notFound error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		t, remote, j, err := rt.route(id, notFound)
		if err != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(err, notFound) {
				status = http.StatusNotFound
			}
			writeError(w, status, err.Error())
			return
		}
		rt.forwards[t.name].Add(1)
		target := path + "/" + remote + suffix
		if suffix == "/events" {
			if err := t.proxy(w, r, target); err != nil {
				rt.proxyErrs.Add(1)
				writeError(w, http.StatusBadGateway, err.Error())
			}
			return
		}
		resp, err := t.do(r.Context(), r.Method, target, nil, r)
		if err != nil {
			rt.proxyErrs.Add(1)
			writeError(w, http.StatusBadGateway, err.Error())
			return
		}
		switch {
		case suffix == "/trace":
			if rt.graftSweepTrace(w, id, resp) {
				return
			}
			resp.body = rewriteTraceID(resp.body, remote, id)
		case j != nil && (resp.status < http.StatusBadRequest || resp.status == http.StatusConflict):
			var view service.View
			if jerr := json.Unmarshal(resp.body, &view); jerr == nil {
				rt.markTerminal(j, &view)
				if remote != id {
					view.ID = id
					if b, merr := json.Marshal(view); merr == nil {
						resp.body = b
					}
				}
			}
		}
		relay(w, resp)
	}
}

// rewriteTraceID renames the trace payload's job ID (aliased jobs only).
func rewriteTraceID(body []byte, remote, id string) []byte {
	if remote == id {
		return body
	}
	var tr struct {
		ID      string          `json:"id"`
		State   service.State   `json:"state"`
		TraceID string          `json:"trace_id,omitempty"`
		Spans   json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return body
	}
	tr.ID = id
	b, err := json.Marshal(tr)
	if err != nil {
		return body
	}
	return b
}

// handleSweepSubmit validates the sweep grid at the edge, charges the
// tenant one unit per grid point, and dispatches the whole sweep to the ring
// owner of its content key, walking the failover order on transport errors.
// The owning shard runs the sweep controller; every completed point is
// content-cached there, so any shard that later receives the same point
// spec — or the resubmitted sweep after a failover — answers from the
// peer-cache lookup path instead of resimulating. Sweeps are deliberately
// not re-enqueued on shard death: the durable state is the per-point cache,
// and resubmitting the same spec (which hashes to a live owner) resumes
// from the completed points.
func (rt *Router) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.SweepSpec
	key, raw, ok := rt.readSpec(w, r, "sweep spec", &spec, func() int { return spec.NumPoints() })
	if !ok {
		return
	}
	// The sweep joins the caller's distributed trace (or starts one here).
	// Each dispatch attempt is recorded as a router span whose ID the shard
	// records as its root's parent.
	tc := rt.traceContext(r)
	start := time.Now()
	var tries []dispatchTry
	owner, _ := rt.ring.Owner(key)
	_, resp, err := rt.dispatch(r, rt.targets[owner], key, "/v1/sweeps", raw, tc,
		func(d dispatchTry) { tries = append(tries, d) })
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	if accepted(resp) {
		var view service.SweepView
		if json.Unmarshal(resp.body, &view) == nil && view.ID != "" {
			rt.recordSweepTrace(view.ID, tc.TraceID, start, tries)
		}
	}
	relay(w, resp)
}

// traceContext returns the request's propagated trace context, or mints a
// fresh one when the caller sent none — the router is the trace root then.
func (rt *Router) traceContext(r *http.Request) obsv.TraceContext {
	if tc, ok := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader)); ok {
		return tc
	}
	return obsv.NewTraceContext()
}

// dispatchTry records one sweep dispatch attempt for the router's trace.
type dispatchTry struct {
	shard      string
	spanID     string
	start, end time.Time
	status     int
	err        string
}

// routedSweepTrace is the router's own span tree for one dispatched sweep.
type routedSweepTrace struct {
	traceID string
	spans   []obsv.SpanView
	graft   int // index of the successful dispatch span (-1: none)
}

// maxSweepTraces bounds the router's per-sweep trace memory (FIFO eviction).
const maxSweepTraces = 256

// recordSweepTrace stores the router-side spans of an accepted sweep: a
// sweep.route root plus one dispatch span per attempt, the successful one
// marked as the graft point for the shard's tree.
func (rt *Router) recordSweepTrace(id, traceID string, start time.Time, tries []dispatchTry) {
	tr := obsv.NewTrace()
	tr.SetID(traceID)
	root := tr.Add("sweep.route", -1, start, time.Now(), obsv.S("sweep", id))
	graft := -1
	for _, d := range tries {
		attrs := []obsv.Attr{obsv.S("shard", d.shard), obsv.S("span_id", d.spanID)}
		if d.err != "" {
			attrs = append(attrs, obsv.S("error", d.err))
		} else {
			attrs = append(attrs, obsv.I("status", int64(d.status)))
		}
		idx := tr.Add("dispatch", root, d.start, d.end, attrs...)
		if d.err == "" && (d.status == http.StatusAccepted || d.status == http.StatusOK) {
			graft = idx
		}
	}
	st := &routedSweepTrace{traceID: traceID, spans: tr.Spans(), graft: graft}
	rt.mu.Lock()
	if _, exists := rt.sweepTraces[id]; !exists {
		rt.sweepTraceOrder = append(rt.sweepTraceOrder, id)
	}
	rt.sweepTraces[id] = st
	for len(rt.sweepTraceOrder) > maxSweepTraces {
		delete(rt.sweepTraces, rt.sweepTraceOrder[0])
		rt.sweepTraceOrder = rt.sweepTraceOrder[1:]
	}
	rt.mu.Unlock()
}

// graftSweepTrace answers a sweep trace request with the cluster-wide
// distributed trace: the router's route/dispatch spans with the owning
// shard's tree — itself the controller's spans plus every point job's engine
// spans — grafted under the successful dispatch span, all sharing one trace
// ID. It reports false, leaving the shard's answer to be relayed, for any
// ID the router holds no trace for (jobs, and sweeps it never dispatched or
// whose trace aged out).
func (rt *Router) graftSweepTrace(w http.ResponseWriter, id string, resp *bufferedResponse) bool {
	rt.mu.Lock()
	st := rt.sweepTraces[id]
	rt.mu.Unlock()
	if st == nil || resp.status != http.StatusOK {
		return false
	}
	var remote struct {
		ID      string          `json:"id"`
		State   service.State   `json:"state"`
		TraceID string          `json:"trace_id"`
		Spans   []obsv.SpanView `json:"spans"`
	}
	if json.Unmarshal(resp.body, &remote) != nil {
		return false
	}
	out := append([]obsv.SpanView(nil), st.spans...)
	off := len(out)
	for _, sp := range remote.Spans {
		if sp.Parent >= 0 {
			sp.Parent += off
		} else {
			sp.Parent = st.graft
		}
		out = append(out, sp)
	}
	writeJSON(w, http.StatusOK, struct {
		ID      string          `json:"id"`
		State   service.State   `json:"state"`
		TraceID string          `json:"trace_id,omitempty"`
		Spans   []obsv.SpanView `json:"spans"`
	}{ID: id, State: remote.State, TraceID: st.traceID, Spans: out})
	return true
}

// handleList merges the collection's lists from every alive shard in
// creation order (ID breaks ties). Views pass through verbatim, except jobs
// moved by a failover re-enqueue, which get their client-visible ID back.
func (rt *Router) handleList(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Per-shard remote→client ID aliases, for jobs moved by failover.
		alias := map[string]map[string]string{}
		rt.mu.Lock()
		for _, j := range rt.jobs {
			if j.RemoteID != j.ID {
				m := alias[j.Shard]
				if m == nil {
					m = map[string]string{}
					alias[j.Shard] = m
				}
				m[j.RemoteID] = j.ID
			}
		}
		rt.mu.Unlock()

		type listed struct {
			raw         json.RawMessage
			id, created string
		}
		alive := rt.aliveTargets()
		lists := make([][]listed, len(alive))
		var wg sync.WaitGroup
		for i, t := range alive {
			wg.Add(1)
			go func(i int, t *target) {
				defer wg.Done()
				resp, err := t.do(r.Context(), http.MethodGet, path, nil, r)
				if err != nil || resp.status != http.StatusOK {
					rt.proxyErrs.Add(1)
					return
				}
				var raws []json.RawMessage
				if json.Unmarshal(resp.body, &raws) != nil {
					return
				}
				for _, raw := range raws {
					var v struct {
						ID        string `json:"id"`
						CreatedAt string `json:"created_at"`
					}
					if json.Unmarshal(raw, &v) != nil {
						continue
					}
					if clientID, ok := alias[t.name][v.ID]; ok {
						var view service.View
						if json.Unmarshal(raw, &view) == nil {
							view.ID, v.ID = clientID, clientID
							raw, _ = json.Marshal(view)
						}
					}
					lists[i] = append(lists[i], listed{raw: raw, id: v.ID, created: v.CreatedAt})
				}
			}(i, t)
		}
		wg.Wait()

		var merged []listed
		for _, l := range lists {
			merged = append(merged, l...)
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].created != merged[b].created {
				return merged[a].created < merged[b].created
			}
			return merged[a].id < merged[b].id
		})
		out := make([]json.RawMessage, len(merged))
		for i, l := range merged {
			out[i] = l.raw
		}
		writeJSON(w, http.StatusOK, out)
	}
}

func (rt *Router) handleCache(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	for _, t := range rt.aliveTargets() {
		if payload, ok := t.cacheLookup(r.Context(), key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(payload)
			return
		}
	}
	writeError(w, http.StatusNotFound, "key not cached")
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	shards := make(map[string]string, len(rt.names))
	up := 0
	for _, name := range rt.names {
		if rt.targets[name].Alive() {
			shards[name] = "up"
			up++
		} else {
			shards[name] = "down"
		}
	}
	body := map[string]any{"status": "ok", "shards": shards}
	if up == 0 {
		body["status"] = "no shards available"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
