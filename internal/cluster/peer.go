package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"ecripse/internal/service"
)

// Shard declares one member of the cluster. Exactly one of URL and Local is
// used: a remote shard is reached over HTTP at URL, while Local short-
// circuits dispatch into an in-process handler (the embedded -peers mode,
// where the node itself is one of the shards it routes to).
type Shard struct {
	// Name is the shard's ring identity; it must match the shard's
	// -node-id so job-ID prefixes ("s1-j000001") route back to it.
	Name string
	// URL is the shard's base URL, e.g. "http://10.0.0.2:8080". Ignored
	// when Local is set.
	URL string
	// Local, when non-nil, dispatches to this handler instead of the
	// network — zero-copy self-routing for the embedded mode.
	Local http.Handler
}

// target is the dispatch-side view of a shard: a name plus a way to issue a
// request, either over the wire or straight into a local handler. It also
// carries the health state the prober maintains.
type target struct {
	name  string
	url   string // "" for local
	local http.Handler
	hc    *http.Client

	mu    sync.Mutex
	alive bool
	fails int // consecutive failed probes
}

func newTarget(s Shard, hc *http.Client) *target {
	return &target{
		name:  s.Name,
		url:   strings.TrimRight(s.URL, "/"),
		local: s.Local,
		hc:    hc,
		alive: true, // optimistic: the prober demotes, never the constructor
	}
}

// isLocal reports whether dispatch bypasses the network.
func (t *target) isLocal() bool { return t.local != nil }

// Alive reports the prober's current verdict. Local targets are always
// alive — a node does not probe itself.
func (t *target) Alive() bool {
	if t.isLocal() {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alive
}

// markProbe folds one probe outcome into the consecutive-failure counter and
// reports the resulting transition: +1 for down→up, -1 for up→down once the
// failure threshold is crossed, 0 for no change.
func (t *target) markProbe(ok bool, threshold int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		t.fails = 0
		if !t.alive {
			t.alive = true
			return +1
		}
		return 0
	}
	t.fails++
	if t.alive && t.fails >= threshold {
		t.alive = false
		return -1
	}
	return 0
}

// bufferedResponse is a fully-read shard response: status, headers and body.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// respRecorder captures a local handler's response so local dispatch can be
// inspected exactly like a buffered remote one. It implements just enough of
// http.ResponseWriter for the service's JSON endpoints.
type respRecorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRespRecorder() *respRecorder { return &respRecorder{header: make(http.Header)} }

func (r *respRecorder) Header() http.Header { return r.header }

func (r *respRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *respRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *respRecorder) response() *bufferedResponse {
	status := r.status
	if status == 0 {
		status = http.StatusOK
	}
	return &bufferedResponse{status: status, header: r.header, body: r.body.Bytes()}
}

// do issues one buffered request against the target: method and path (plus
// optional body) with the cluster-forwarded marker set and selected client
// headers carried over. src may be nil (prober and redispatch traffic).
func (t *target) do(ctx context.Context, method, path string, body []byte, src *http.Request) (*bufferedResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.url+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(service.ForwardedHeader, "1")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if src != nil {
		// Pass the caller's credentials through: the entry point already
		// charged the tenant, but shards that enforce auth still demand a
		// valid key on forwarded traffic. Traceparent propagates the
		// distributed-trace context so shard spans join the router's tree.
		for _, h := range []string{"Authorization", "X-API-Key", "Accept", "Traceparent"} {
			if v := src.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
	}
	if t.isLocal() {
		req.URL.Path = path // no base URL to resolve against
		rec := newRespRecorder()
		t.local.ServeHTTP(rec, req)
		return rec.response(), nil
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		return nil, err
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// maxShardResponse bounds one buffered shard response. Job views carry the
// full result payload (estimate series), which stays well under this.
const maxShardResponse = 64 << 20

// cacheLookup probes the shard's result cache for a content key.
func (t *target) cacheLookup(ctx context.Context, key string) (json.RawMessage, bool) {
	resp, err := t.do(ctx, http.MethodGet, "/v1/cache/"+key, nil, nil)
	if err != nil || resp.status != http.StatusOK {
		return nil, false
	}
	return resp.body, true
}

// healthz probes the shard's liveness endpoint. Any HTTP response — even 503
// while draining — proves the process is up; only transport errors count as
// failures, because a draining shard still answers status queries for the
// jobs it owns.
func (t *target) healthz(ctx context.Context) error {
	_, err := t.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}

// metricsJSON fetches the shard's expvar-style metrics snapshot.
func (t *target) metricsJSON(ctx context.Context) (*service.Metrics, error) {
	resp, err := t.do(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("cluster: shard %s /metrics: status %d", t.name, resp.status)
	}
	var m service.Metrics
	if err := json.Unmarshal(resp.body, &m); err != nil {
		return nil, fmt.Errorf("cluster: shard %s /metrics: %w", t.name, err)
	}
	return &m, nil
}

// proxy streams a remote response (SSE /events) straight to the client,
// flushing after every read so progress events arrive as they are produced.
func (t *target) proxy(w http.ResponseWriter, r *http.Request, path string) error {
	if t.isLocal() {
		// Local SSE cannot be buffered (it runs until the job ends): hand the
		// client's writer to the handler directly, path rewritten.
		r2 := r.Clone(r.Context())
		r2.URL.Path = path
		r2.Header.Set(service.ForwardedHeader, "1")
		t.local.ServeHTTP(w, r2)
		return nil
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, t.url+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set(service.ForwardedHeader, "1")
	for _, h := range []string{"Authorization", "X-API-Key", "Accept", "Last-Event-ID"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	// A bare client without the overall timeout: an SSE stream legitimately
	// outlives any request deadline, and the inbound request's context
	// already cancels the proxy when the client disconnects.
	stream := &http.Client{Transport: t.hc.Transport}
	resp, err := stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return nil // io.EOF or upstream close: stream is over either way
		}
	}
}
