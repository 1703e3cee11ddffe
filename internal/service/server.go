package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ecripse/internal/obsv"
)

// ForwardedHeader marks a request proxied by a cluster peer or router. The
// entry point already authenticated and rate-limited the client, so the
// receiving shard skips re-charging the tenant (and the cluster layer uses
// it to stop forwarding loops). Spoofing it from outside the cluster only
// bypasses rate accounting, never authentication — forwarded requests still
// need a valid API key when the shard enforces one.
const ForwardedHeader = "X-Ecripse-Forwarded"

// isForwarded reports whether a peer already charged this request's tenant.
func isForwarded(r *http.Request) bool { return r.Header.Get(ForwardedHeader) != "" }

// Server exposes a Service over HTTP/JSON:
//
//	POST   /v1/jobs             submit a JobSpec        → 202 job view (200 on a cache hit)
//	POST   /v1/jobs:batch       submit [JobSpec...]     → 200 [{status, job|error}...]
//	GET    /v1/jobs             list jobs (no results)  → 200 [view...]
//	GET    /v1/jobs/{id}        status + result         → 200 view
//	GET    /v1/jobs/{id}/events progress stream (SSE)   → text/event-stream
//	GET    /v1/jobs/{id}/trace  span timeline           → 200 {id, state, spans}
//	DELETE /v1/jobs/{id}        cancel                  → 202 view (409 view if already terminal)
//	POST   /v1/sweeps           submit a SweepSpec      → 202 sweep view (400 over the point limit)
//	GET    /v1/sweeps           list sweeps             → 200 [view...]
//	GET    /v1/sweeps/{id}      status, points, result  → 200 view
//	GET    /v1/sweeps/{id}/events per-point SSE         → text/event-stream
//	GET    /v1/sweeps/{id}/trace  reassembled trace     → 200 {id, state, trace_id, spans}
//	DELETE /v1/sweeps/{id}      cancel                  → 202 view (409 if already terminal)
//	GET    /v1/cache/{key}      result by content key   → 200 payload (peer cache lookups)
//	GET    /metrics             expvar-style JSON (?format=prometheus for text exposition)
//	GET    /healthz             liveness (503 while draining)
//
// Jobs and sweeps share one lifecycle, so one get, list, cancel, events and
// trace handler each serves both collections. With Config.Tenants set on
// the service, /v1/* requests (except /v1/cache/, whose sha-256 keys are
// capabilities — intra-cluster peers present no API key) require a valid
// API key and submits are charged against the tenant's token bucket and
// quotas; rejections answer 429 with a Retry-After header. Submit bodies
// beyond MaxBodyBytes answer 413.
type Server struct {
	svc *Service
	mux *http.ServeMux

	// EventInterval is the progress-event period of /events streams.
	EventInterval time.Duration

	// MaxBodyBytes caps a submit body (single or batch); oversized specs
	// answer 413 instead of buffering unbounded attacker-controlled JSON.
	// Zero selects DefaultMaxBodyBytes; negative disables the cap.
	MaxBodyBytes int64

	// MaxBatchJobs caps the spec count of one POST /v1/jobs:batch request
	// (default DefaultMaxBatchJobs).
	MaxBatchJobs int
}

// DefaultMaxBodyBytes bounds one submit body. Specs are small (a custom
// cell plus a sweep grid is well under 16 KiB); 1 MiB leaves two orders of
// magnitude of headroom while still refusing junk uploads.
const DefaultMaxBodyBytes = 1 << 20

// DefaultMaxBatchJobs bounds one batch submission.
const DefaultMaxBatchJobs = 1024

// resource is what the per-ID routes serve: a job or a sweep.
type resource interface {
	Cancel() bool
	Done() <-chan struct{}
	State() State
	DiagSince(cursor uint64) ([]DiagEvent, uint64, uint64)
	view(detail bool) any
	progress() any
	sseName(kind string) string
	traceSpans(*Service) (string, []obsv.SpanView)
}

// collection is one kind's lookup and listing.
type collection struct {
	get  func(id string) (resource, error)
	list func() []resource
}

func collectionOf[T resource](get func(string) (T, error), list func() []T) collection {
	return collection{
		get: func(id string) (resource, error) {
			v, err := get(id)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
		list: func() []resource {
			items := list()
			out := make([]resource, len(items))
			for i, v := range items {
				out[i] = v
			}
			return out
		},
	}
}

// NewServer wires the routes for the service.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), EventInterval: 250 * time.Millisecond}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	for path, c := range map[string]collection{
		"/v1/jobs":   collectionOf(svc.Get, svc.Jobs),
		"/v1/sweeps": collectionOf(svc.GetSweep, svc.Sweeps),
	} {
		s.mux.HandleFunc("GET "+path, s.handleList(c))
		s.mux.HandleFunc("GET "+path+"/{id}", s.handleGet(c))
		s.mux.HandleFunc("GET "+path+"/{id}/events", s.handleEvents(c))
		s.mux.HandleFunc("GET "+path+"/{id}/trace", s.handleTrace(c))
		s.mux.HandleFunc("DELETE "+path+"/{id}", s.handleCancel(c))
	}
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheLookup)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler: authenticate /v1/* (when the service
// has tenants), then dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if ts := s.svc.cfg.Tenants; ts != nil && strings.HasPrefix(r.URL.Path, "/v1/") &&
		!strings.HasPrefix(r.URL.Path, "/v1/cache/") {
		t, err := ts.Authenticate(r)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
		r = r.WithContext(WithTenant(r.Context(), t))
	}
	// Propagated distributed-trace context (W3C traceparent). Invalid or
	// absent headers leave the zero TraceContext, and submits mint fresh IDs.
	if tc, ok := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader)); ok {
		r = r.WithContext(obsv.WithTraceContext(r.Context(), tc))
	}
	s.mux.ServeHTTP(w, r)
}

// DecodeBody reads one JSON request body into v, refusing unknown fields
// and bodies over limit bytes (limit <= 0 disables the cap). On failure it
// answers 413 or 400, naming what it was reading, and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("%s exceeds the %d-byte body limit", what, mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "decode "+what+": "+err.Error())
		return false
	}
	return true
}

// decode applies DecodeBody under the configured body cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	limit := s.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	return DecodeBody(w, r, limit, what, v)
}

// admit charges the request's tenant n submits, unless a cluster peer
// already did; false means the refusal has been answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if isForwarded(r) {
		return true
	}
	if err := s.svc.cfg.Tenants.Acquire(TenantFrom(r.Context()), n); err != nil {
		writeError(w, submitErrStatus(w, err), err.Error())
		return false
	}
	return true
}

// submitErrStatus maps a decode or Submit error onto its response, setting
// Retry-After on the back-pressure statuses (full queue, rate limit, quota)
// so sweep drivers back off instead of hot-looping.
func submitErrStatus(w http.ResponseWriter, err error) int {
	setRetry := func(v string) {
		if w != nil {
			w.Header().Set("Retry-After", v)
		}
	}
	var rle *RateLimitError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &rle):
		setRetry(strconv.Itoa(int(rle.RetryAfter.Seconds())))
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull):
		setRetry("1")
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !s.decode(w, r, "spec", &spec) || !s.admit(w, r, 1) {
		return
	}
	j, err := s.svc.Submit(r.Context(), spec)
	switch {
	case err != nil:
		writeError(w, submitErrStatus(w, err), err.Error())
	case j.IsCached():
		writeJSON(w, http.StatusOK, j.Snapshot(true)) // cache hit: answered inline
	default:
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.Snapshot(false))
	}
}

// BatchItem is one element of a batch-submit response, aligned by index
// with the request's spec array. Status carries the HTTP code the spec
// would have received as a single submit.
type BatchItem struct {
	Status int    `json:"status"`
	Job    *View  `json:"job,omitempty"`
	Error  string `json:"error,omitempty"`
}

// handleBatch submits an array of specs in one request, amortizing HTTP
// overhead for externally driven sweeps. Fairness is atomic: the tenant is
// charged len(specs) up front and a rejection refuses the whole batch with
// 429 + Retry-After. Per-spec failures (bad spec, full queue) surface in
// the per-item status without failing the rest.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	if !s.decode(w, r, "batch", &specs) {
		return
	}
	maxJobs := s.MaxBatchJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxBatchJobs
	}
	if len(specs) == 0 || len(specs) > maxJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch must carry 1..%d specs (got %d)", maxJobs, len(specs)))
		return
	}
	if !s.admit(w, r, len(specs)) {
		return
	}
	items := make([]BatchItem, len(specs))
	for i, spec := range specs {
		j, err := s.svc.Submit(r.Context(), spec)
		if err != nil {
			items[i] = BatchItem{Status: submitErrStatus(nil, err), Error: err.Error()}
			continue
		}
		view := j.Snapshot(false)
		status := http.StatusAccepted
		if view.Cached {
			status = http.StatusOK
		}
		items[i] = BatchItem{Status: status, Job: &view}
	}
	writeJSON(w, http.StatusOK, items)
}

// handleSweepSubmit accepts a SweepSpec, plans its grid, and starts the
// sweep controller. Fairness is atomic like a batch: the tenant is charged
// one token per grid point up front. Oversized grids (ErrTooManyPoints) and
// any other spec defect answer 400.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !s.decode(w, r, "sweep spec", &spec) {
		return
	}
	// Normalize before charging so the token count reflects the real grid
	// (and junk grids cost nothing). SubmitSweep re-normalizes the already-
	// canonical spec, which is idempotent.
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.admit(w, r, spec.NumPoints()) {
		return
	}
	sw, err := s.svc.SubmitSweep(r.Context(), spec)
	if err != nil {
		writeError(w, submitErrStatus(w, err), err.Error())
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	writeJSON(w, http.StatusAccepted, sw.Snapshot(false))
}

func (s *Server) handleList(c collection) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		items := c.list()
		views := make([]any, len(items))
		for i, it := range items {
			views[i] = it.view(false)
		}
		writeJSON(w, http.StatusOK, views)
	}
}

func (s *Server) handleGet(c collection) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res, err := c.get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res.view(true))
	}
}

// handleCancel answers 202 with the view when the request had an effect,
// and 409 with the terminal view when the job or sweep had already ended.
func (s *Server) handleCancel(c collection) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res, err := c.get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		status := http.StatusAccepted
		if !res.Cancel() {
			status = http.StatusConflict
		}
		writeJSON(w, status, res.view(false))
	}
}

// handleEvents streams progress as server-sent events: the buffered ring
// events under their kind's SSE name (a job's "diag" and "health", a
// sweep's "point" and terminal "sweep"), one "progress" summary per tick,
// and a final "done" with the full view once the resource is terminal.
func (s *Server) handleEvents(c collection) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res, err := c.get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusNotImplemented, "streaming unsupported")
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)

		emit := func(event string, v any) {
			b, _ := json.Marshal(v)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
			flusher.Flush()
		}
		// drain forwards buffered events since the cursor. A consumer that
		// fell behind the ring first learns how many events it missed, then
		// gets the survivors in order.
		var cursor uint64
		drain := func() {
			events, dropped, next := res.DiagSince(cursor)
			cursor = next
			if dropped > 0 {
				emit("dropped", map[string]uint64{"missed": dropped})
			}
			for _, ev := range events {
				emit(res.sseName(ev.Kind), ev)
			}
		}
		ticker := time.NewTicker(s.EventInterval)
		defer ticker.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-res.Done():
				drain()
				emit("done", res.view(true))
				return
			case <-ticker.C:
				drain()
				emit("progress", res.progress())
			}
		}
	}
}

// handleTrace serves the span timeline: a job's own (live, or persisted for
// a recovered job), or a sweep's reassembled distributed trace.
func (s *Server) handleTrace(c collection) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		res, err := c.get(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		traceID, spans := res.traceSpans(s.svc)
		if spans == nil {
			spans = []obsv.SpanView{}
		}
		writeJSON(w, http.StatusOK, struct {
			ID      string          `json:"id"`
			State   State           `json:"state"`
			TraceID string          `json:"trace_id,omitempty"`
			Spans   []obsv.SpanView `json:"spans"`
		}{ID: id, State: res.State(), TraceID: traceID, Spans: spans})
	}
}

// handleCacheLookup answers a peer shard's read-through probe: the raw
// result payload for a content key, or 404. Keys are sha-256 content
// addresses — knowing one means knowing the full spec, so the endpoint
// leaks nothing an API key would protect.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	payload, ok := s.svc.CachedResult(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "key not cached")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.svc.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	build := ReadBuildInfo()
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": s.svc.Uptime().Seconds(),
		"go_version":     build.GoVersion,
	}
	if build.Revision != "" {
		body["revision"] = build.Revision
	}
	if s.svc.Draining() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
