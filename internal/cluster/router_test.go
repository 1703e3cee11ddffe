package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
	"ecripse/internal/store"
)

// shardFixture is one real ecripsed shard behind a test listener: the
// service, its HTTP handler and the server it answers on.
type shardFixture struct {
	name string
	svc  *service.Service
	api  *service.Server
	srv  *httptest.Server
}

// newShard boots a shard named name whose runner is run (nil selects an
// instant fake that charges 100 sims).
func newShard(t *testing.T, name string, run func(context.Context, service.JobSpec, *montecarlo.Counter) (*service.RunResult, error)) *shardFixture {
	t.Helper()
	if run == nil {
		run = func(_ context.Context, _ service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
			c.Add(100)
			return &service.RunResult{}, nil
		}
	}
	svc := service.New(service.Config{
		Workers:       2,
		QueueCapacity: 64,
		CacheCapacity: 64,
		NodeID:        name,
		RunFunc:       run,
	})
	api := service.NewServer(svc)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Drain(context.Background()) })
	return &shardFixture{name: name, svc: svc, api: api, srv: srv}
}

// newCluster boots n remote shards plus a dedicated router fronting them,
// probing disabled (tests drive ProbeOnce themselves).
func newCluster(t *testing.T, n int, cfg Config) (*Router, *httptest.Server, []*shardFixture) {
	t.Helper()
	shards := make([]*shardFixture, n)
	for i := range shards {
		shards[i] = newShard(t, fmt.Sprintf("s%d", i+1), nil)
		cfg.Shards = append(cfg.Shards, Shard{Name: shards[i].name, URL: shards[i].srv.URL})
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	t.Cleanup(rt.Close)
	return rt, front, shards
}

// specKey normalizes a copy of spec and returns its content key.
func specKey(t *testing.T, spec service.JobSpec) string {
	t.Helper()
	tmp := spec
	if err := tmp.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return tmp.Key()
}

// specOwnedBy scans seeds for a spec whose ring owner is the wanted shard.
func specOwnedBy(t *testing.T, rt *Router, want string) service.JobSpec {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		spec := service.JobSpec{Seed: seed}
		if owner, ok := rt.ring.Owner(specKey(t, spec)); ok && owner == want {
			return spec
		}
	}
	t.Fatalf("no seed below 4096 maps to shard %s", want)
	return service.JobSpec{}
}

// postJSON posts v to url with optional bearer key and decodes the response.
func postJSON(t *testing.T, url, key string, v any, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode POST %s response: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func getJSON(t *testing.T, url, key string, out any) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode GET %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the router for a job until it reaches a terminal state.
func waitDone(t *testing.T, base, key, id string, timeout time.Duration) service.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var v service.View
		if st := getJSON(t, base+"/v1/jobs/"+id, key, &v); st == http.StatusOK && v.State.Terminal() {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v", id, timeout)
	return service.View{}
}

func TestRouterDispatchByOwnership(t *testing.T) {
	rt, front, _ := newCluster(t, 3, Config{})
	for seed := int64(1); seed <= 12; seed++ {
		spec := service.JobSpec{Seed: seed}
		owner, _ := rt.ring.Owner(specKey(t, spec))
		var view service.View
		status, _ := postJSON(t, front.URL+"/v1/jobs", "", spec, &view)
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("seed %d: submit status %d", seed, status)
		}
		if got := shardPrefix(view.ID); got != owner {
			t.Errorf("seed %d: job %s landed on %s, ring owner is %s", seed, view.ID, got, owner)
		}
		done := waitDone(t, front.URL, "", view.ID, 5*time.Second)
		if done.State != service.StateDone {
			t.Errorf("seed %d: state %s, want done", seed, done.State)
		}
	}
	// Every shard should have seen work across 12 distinct specs.
	rs := rt.stats()
	for name, n := range rs.Forwards {
		if n == 0 {
			t.Errorf("shard %s received no dispatches: %v", name, rs.Forwards)
		}
	}
	if rs.JobsTracked != 12 {
		t.Errorf("jobs tracked = %d, want 12", rs.JobsTracked)
	}
}

func TestRouterCrossNodeCacheHit(t *testing.T) {
	rt, front, shards := newCluster(t, 3, Config{})

	// Find a spec owned by s1 and compute it directly on s2, bypassing the
	// router — the cluster now holds the result on a non-owner shard.
	spec := specOwnedBy(t, rt, "s1")
	var first service.View
	if st, _ := postJSON(t, shards[1].srv.URL+"/v1/jobs", "", spec, &first); st != http.StatusAccepted && st != http.StatusOK {
		t.Fatalf("direct submit to s2: status %d", st)
	}
	waitDone(t, shards[1].srv.URL, "", first.ID, 5*time.Second)

	// The same spec submitted through the router must be steered to s2 and
	// answered from its cache without recomputation.
	var view service.View
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "", spec, &view); st != http.StatusOK && st != http.StatusAccepted {
		t.Fatalf("router submit: status %d", st)
	}
	done := waitDone(t, front.URL, "", view.ID, 5*time.Second)
	if shardPrefix(view.ID) != "s2" {
		t.Errorf("job %s not steered to the cache holder s2", view.ID)
	}
	if !done.Cached {
		t.Errorf("view.Cached = false, want a cache answer")
	}
	if got := rt.cacheRouted.Load(); got != 1 {
		t.Errorf("cacheRouted = %d, want 1", got)
	}

	// The cluster-wide cache endpoint serves the key from any entry point.
	key := specKey(t, spec)
	if st := getJSON(t, front.URL+"/v1/cache/"+key, "", nil); st != http.StatusOK {
		t.Errorf("GET /v1/cache/%s: status %d, want 200", key[:8], st)
	}
	if st := getJSON(t, front.URL+"/v1/cache/"+strings.Repeat("0", 64), "", nil); st != http.StatusNotFound {
		t.Errorf("GET /v1/cache/<absent>: status %d, want 404", st)
	}
}

func TestRouterBatchScatters(t *testing.T) {
	rt, front, _ := newCluster(t, 3, Config{})
	specs := []service.JobSpec{
		{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4},
		{Seed: 5, Estimator: "no-such-estimator"}, // per-item 400, not a batch failure
		{Seed: 6},
	}
	var items []service.BatchItem
	status, _ := postJSON(t, front.URL+"/v1/jobs:batch", "", specs, &items)
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if len(items) != len(specs) {
		t.Fatalf("batch returned %d items, want %d", len(items), len(specs))
	}
	for i, it := range items {
		if i == 4 {
			if it.Status != http.StatusBadRequest || it.Job != nil {
				t.Errorf("item 4: status %d job %v, want a per-item 400", it.Status, it.Job)
			}
			continue
		}
		if it.Status != http.StatusAccepted && it.Status != http.StatusOK {
			t.Errorf("item %d: status %d, error %q", i, it.Status, it.Error)
			continue
		}
		owner, _ := rt.ring.Owner(specKey(t, specs[i]))
		if got := shardPrefix(it.Job.ID); got != owner {
			t.Errorf("item %d: landed on %s, ring owner is %s", i, got, owner)
		}
		waitDone(t, front.URL, "", it.Job.ID, 5*time.Second)
	}

	// Batch bounds: empty and oversized bodies answer 400.
	if st, _ := postJSON(t, front.URL+"/v1/jobs:batch", "", []service.JobSpec{}, nil); st != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", st)
	}
}

func TestRouterFailoverRedispatch(t *testing.T) {
	// s1's runner blocks while `blocking` is set, simulating a job caught
	// mid-run when the shard dies.
	var blocking atomic.Bool
	blocking.Store(true)
	run := func(ctx context.Context, _ service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
		for blocking.Load() {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
		c.Add(100)
		return &service.RunResult{}, nil
	}

	var shards []*shardFixture
	cfg := Config{ProbeInterval: -1, ProbeFailures: 3, ProbeTimeout: 200 * time.Millisecond}
	for _, name := range []string{"s1", "s2", "s3"} {
		sh := newShard(t, name, run)
		shards = append(shards, sh)
		cfg.Shards = append(cfg.Shards, Shard{Name: name, URL: sh.srv.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	spec := specOwnedBy(t, rt, "s1")
	var view service.View
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "", spec, &view); st != http.StatusAccepted {
		t.Fatalf("submit: status %d", st)
	}
	if shardPrefix(view.ID) != "s1" {
		t.Fatalf("job %s not on s1", view.ID)
	}
	clientID := view.ID

	// Kill the shard mid-run, then let later runs complete instantly so the
	// redispatched copy finishes on the successor.
	shards[0].srv.Close()
	blocking.Store(false)

	for i := 0; i < 3; i++ {
		rt.ProbeOnce(context.Background())
	}
	if rt.ring.Has("s1") {
		t.Fatal("s1 still on the ring after 3 failed probes")
	}
	if got := rt.downEvents.Load(); got != 1 {
		t.Errorf("downEvents = %d, want 1", got)
	}
	if got := rt.redispatched.Load(); got != 1 {
		t.Errorf("redispatched = %d, want 1", got)
	}

	// The job completes on a survivor under its original client-visible ID.
	done := waitDone(t, front.URL, "", clientID, 5*time.Second)
	if done.State != service.StateDone {
		t.Fatalf("state %s, want done", done.State)
	}
	if done.ID != clientID {
		t.Errorf("view ID %s, want the original %s", done.ID, clientID)
	}
	rt.mu.Lock()
	j := rt.jobs[clientID]
	shard, remote := j.Shard, j.RemoteID
	rt.mu.Unlock()
	if shard == "s1" {
		t.Errorf("job still mapped to the dead shard")
	}
	if succ, _ := rt.ring.Owner(specKey(t, spec)); shard != succ {
		t.Errorf("job moved to %s, ring successor is %s", shard, succ)
	}
	if shardPrefix(remote) != shard {
		t.Errorf("remote ID %s does not carry the new shard prefix %s", remote, shard)
	}

	// The listing reports the job under its client ID, not the remote alias.
	var views []service.View
	if st := getJSON(t, front.URL+"/v1/jobs", "", &views); st != http.StatusOK {
		t.Fatalf("list: status %d", st)
	}
	found := false
	for _, v := range views {
		if v.ID == clientID {
			found = true
		}
	}
	if !found {
		t.Errorf("client ID %s missing from the merged listing", clientID)
	}
}

func TestRouterJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}

	rt, front, _ := newCluster(t, 2, Config{Store: st})
	var view service.View
	if s, _ := postJSON(t, front.URL+"/v1/jobs", "", service.JobSpec{Seed: 7}, &view); s != http.StatusAccepted && s != http.StatusOK {
		t.Fatalf("submit: status %d", s)
	}
	waitDone(t, front.URL, "", view.ID, 5*time.Second)
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// A fresh router over the same journal keeps routing the old ID.
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	rt2cfg := Config{Store: st2, ProbeInterval: -1}
	for _, name := range rt.names {
		rt2cfg.Shards = append(rt2cfg.Shards, Shard{Name: name, URL: rt.targets[name].url})
	}
	rt2, err := NewRouter(rt2cfg)
	if err != nil {
		t.Fatalf("NewRouter (recovered): %v", err)
	}
	defer rt2.Close()
	rt2.mu.Lock()
	j := rt2.jobs[view.ID]
	rt2.mu.Unlock()
	if j == nil {
		t.Fatalf("recovered router lost job %s", view.ID)
	}
	if !j.Terminal {
		t.Errorf("recovered job %s not marked terminal", view.ID)
	}
	if j.Shard != shardPrefix(view.ID) {
		t.Errorf("recovered placement %s, want %s", j.Shard, shardPrefix(view.ID))
	}
	front2 := httptest.NewServer(rt2)
	defer front2.Close()
	var got service.View
	if s := getJSON(t, front2.URL+"/v1/jobs/"+view.ID, "", &got); s != http.StatusOK {
		t.Fatalf("GET recovered job: status %d", s)
	}
	if got.State != service.StateDone {
		t.Errorf("recovered job state %s, want done", got.State)
	}
}

func TestRouterAuthRateAndQuota(t *testing.T) {
	tenants, err := service.NewTenants([]service.TenantConfig{
		{Key: "limited-key", Name: "limited", RatePerSec: 1, Burst: 2},
		{Key: "capped-key", Name: "capped", QuotaJobs: 1},
	})
	if err != nil {
		t.Fatalf("NewTenants: %v", err)
	}
	_, front, _ := newCluster(t, 2, Config{Tenants: tenants})

	// No credentials: the router refuses before touching any shard.
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "", service.JobSpec{Seed: 1}, nil); st != http.StatusUnauthorized {
		t.Errorf("anonymous submit: status %d, want 401", st)
	}
	if st := getJSON(t, front.URL+"/v1/jobs", "wrong-key", nil); st != http.StatusUnauthorized {
		t.Errorf("bad key list: status %d, want 401", st)
	}

	// Burst of 2, then the bucket is dry: 429 with a Retry-After hint.
	for i := int64(0); i < 2; i++ {
		if st, _ := postJSON(t, front.URL+"/v1/jobs", "limited-key", service.JobSpec{Seed: 10 + i}, nil); st != http.StatusAccepted && st != http.StatusOK {
			t.Fatalf("burst submit %d: status %d", i, st)
		}
	}
	st, hdr := postJSON(t, front.URL+"/v1/jobs", "limited-key", service.JobSpec{Seed: 20}, nil)
	if st != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit: status %d, want 429", st)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("rate-limited 429 carries Retry-After %q, want a positive hint", ra)
	}

	// Quota exhaustion also answers 429, with the long quota back-off.
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "capped-key", service.JobSpec{Seed: 30}, nil); st != http.StatusAccepted && st != http.StatusOK {
		t.Fatalf("quota submit 1: status %d", st)
	}
	st, hdr = postJSON(t, front.URL+"/v1/jobs", "capped-key", service.JobSpec{Seed: 31}, nil)
	if st != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", st)
	}
	if ra := hdr.Get("Retry-After"); ra != "3600" {
		t.Errorf("over-quota Retry-After = %q, want 3600", ra)
	}

	// A batch is charged atomically: 2 specs against 0 remaining tokens.
	st, _ = postJSON(t, front.URL+"/v1/jobs:batch", "capped-key",
		[]service.JobSpec{{Seed: 40}, {Seed: 41}}, nil)
	if st != http.StatusTooManyRequests {
		t.Errorf("over-quota batch: status %d, want 429", st)
	}
}

func TestRouterBodyLimit(t *testing.T) {
	_, front, _ := newCluster(t, 2, Config{MaxBodyBytes: 512})
	huge := []byte(`{"estimator":"` + strings.Repeat("x", 2048) + `"}`)
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

func TestRouterPrometheusRollup(t *testing.T) {
	rt, front, _ := newCluster(t, 2, Config{})
	var view service.View
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "", service.JobSpec{Seed: 1}, &view); st != http.StatusAccepted && st != http.StatusOK {
		t.Fatalf("submit: status %d", st)
	}
	waitDone(t, front.URL, "", view.ID, 5*time.Second)

	var buf bytes.Buffer
	if err := rt.WritePrometheus(context.Background(), &buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if problems := obsv.LintProm(text); len(problems) > 0 {
		t.Errorf("prometheus exposition fails lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		"ecripse_router_shards 2",
		`ecripse_router_shard_up{shard="s1"} 1`,
		`ecripse_router_shard_up{shard="s2"} 1`,
		`ecripsed_jobs{shard="` + shardPrefix(view.ID) + `",state="done"} 1`,
		`ecripse_router_forwards_total{shard="`,
		"ecripse_router_jobs_tracked 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The HTTP endpoint serves both formats.
	resp, err := http.Get(front.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	var cm ClusterMetrics
	if st := getJSON(t, front.URL+"/metrics", "", &cm); st != http.StatusOK {
		t.Fatalf("GET /metrics JSON: status %d", st)
	}
	if cm.Router.Shards != 2 || len(cm.Shards) != 2 {
		t.Errorf("JSON roll-up: %d shards configured, %d snapshots", cm.Router.Shards, len(cm.Shards))
	}
}

func TestRouterSSEProxy(t *testing.T) {
	_, front, _ := newCluster(t, 2, Config{})
	var view service.View
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "", service.JobSpec{Seed: 1}, &view); st != http.StatusAccepted && st != http.StatusOK {
		t.Fatalf("submit: status %d", st)
	}
	waitDone(t, front.URL, "", view.ID, 5*time.Second)

	resp, err := http.Get(front.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events Content-Type = %q", ct)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("SSE stream never delivered the final done event")
	}
}

// TestEmbeddedPeersTopology exercises the -peers mode: two nodes, each an
// entry point with a local shard and the other as a remote peer. A spec
// submitted at either node runs on its ring owner; the repeat submit at the
// other node is forwarded to the same owner and answered from its cache.
func TestEmbeddedPeersTopology(t *testing.T) {
	type node struct {
		fix   *shardFixture
		rt    *Router
		front *httptest.Server
	}
	mk := func(name string) *node { return &node{fix: newShard(t, name, nil)} }
	n1, n2 := mk("s1"), mk("s2")
	wire := func(self, peer *node) {
		rt, err := NewRouter(Config{
			Shards: []Shard{
				{Name: self.fix.name, Local: self.fix.api},
				{Name: peer.fix.name, URL: peer.fix.srv.URL},
			},
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatalf("NewRouter(%s): %v", self.fix.name, err)
		}
		t.Cleanup(rt.Close)
		self.rt = rt
		self.front = httptest.NewServer(rt)
		t.Cleanup(self.front.Close)
	}
	wire(n1, n2)
	wire(n2, n1)

	for seed := int64(1); seed <= 6; seed++ {
		spec := service.JobSpec{Seed: seed}
		owner, _ := n1.rt.ring.Owner(specKey(t, spec))

		var v1 service.View
		if st, _ := postJSON(t, n1.front.URL+"/v1/jobs", "", spec, &v1); st != http.StatusAccepted && st != http.StatusOK {
			t.Fatalf("seed %d: node-1 submit status %d", seed, st)
		}
		if got := shardPrefix(v1.ID); got != owner {
			t.Errorf("seed %d: node-1 entry placed the job on %s, ring owner is %s", seed, got, owner)
		}
		waitDone(t, n1.front.URL, "", v1.ID, 5*time.Second)

		// Same spec through the other entry point: both rings agree on the
		// owner, so the repeat is a cache hit there.
		var v2 service.View
		if st, _ := postJSON(t, n2.front.URL+"/v1/jobs", "", spec, &v2); st != http.StatusAccepted && st != http.StatusOK {
			t.Fatalf("seed %d: node-2 submit status %d", seed, st)
		}
		d2 := waitDone(t, n2.front.URL, "", v2.ID, 5*time.Second)
		if shardPrefix(v2.ID) != owner {
			t.Errorf("seed %d: node-2 entry placed the repeat on %s, want %s", seed, shardPrefix(v2.ID), owner)
		}
		if !d2.Cached {
			t.Errorf("seed %d: repeat submit at the other entry point recomputed instead of hitting the cache", seed)
		}
	}
}

// TestClusterSweepTracePropagation is the distributed-tracing acceptance
// test: a sweep submitted through an embedded-peers entry point with an
// explicit client traceparent comes back from GET /v1/sweeps/{id}/trace as
// one coherent tree — the router's route/dispatch spans, the owning shard's
// sweep-controller span, and every point job's engine spans — all sharing
// the client's trace ID.
func TestClusterSweepTracePropagation(t *testing.T) {
	type node struct {
		fix   *shardFixture
		rt    *Router
		front *httptest.Server
	}
	mk := func(name string) *node { return &node{fix: newShard(t, name, nil)} }
	n1, n2 := mk("s1"), mk("s2")
	wire := func(self, peer *node) {
		rt, err := NewRouter(Config{
			Shards: []Shard{
				{Name: self.fix.name, Local: self.fix.api},
				{Name: peer.fix.name, URL: peer.fix.srv.URL},
			},
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatalf("NewRouter(%s): %v", self.fix.name, err)
		}
		t.Cleanup(rt.Close)
		self.rt = rt
		self.front = httptest.NewServer(rt)
		t.Cleanup(self.front.Close)
	}
	wire(n1, n2)
	wire(n2, n1)

	// Submit with a client-minted traceparent; the router must adopt the
	// client's trace ID rather than minting its own.
	client := obsv.NewTraceContext()
	spec := sweepSpecFixture()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, n1.front.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obsv.TraceparentHeader, client.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	var sv service.SweepView
	if derr := json.NewDecoder(resp.Body).Decode(&sv); derr != nil {
		t.Fatalf("decode sweep view: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur service.SweepView
		if st := getJSON(t, n1.front.URL+"/v1/sweeps/"+sv.ID, "", &cur); st != http.StatusOK {
			t.Fatalf("GET sweep: status %d", st)
		}
		if cur.State.Terminal() {
			if cur.State != service.StateDone {
				t.Fatalf("sweep ended %q", cur.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep not terminal within 10s (state %q)", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var tr struct {
		ID      string          `json:"id"`
		TraceID string          `json:"trace_id"`
		Spans   []obsv.SpanView `json:"spans"`
	}
	if st := getJSON(t, n1.front.URL+"/v1/sweeps/"+sv.ID+"/trace", "", &tr); st != http.StatusOK {
		t.Fatalf("GET sweep trace: status %d", st)
	}
	if tr.TraceID != client.TraceID {
		t.Fatalf("reassembled trace ID = %q, client sent %q", tr.TraceID, client.TraceID)
	}

	// One tree: route root -> dispatch -> shard sweep controller -> points,
	// with the point jobs' engine spans grafted alongside.
	routeIdx, dispatchIdx, sweepIdx := -1, -1, -1
	points, runs := 0, 0
	for i, sp := range tr.Spans {
		switch sp.Name {
		case "sweep.route":
			if routeIdx != -1 {
				t.Fatalf("two sweep.route spans: %+v", tr.Spans)
			}
			routeIdx = i
			if sp.Parent != -1 {
				t.Errorf("sweep.route parent = %d, want root", sp.Parent)
			}
		case "dispatch":
			dispatchIdx = i
			if _, ok := sp.Attrs["span_id"].(string); !ok {
				t.Errorf("dispatch span lacks span_id attr: %+v", sp)
			}
		case "sweep":
			sweepIdx = i
		case "point":
			points++
		case "run":
			runs++
		}
	}
	if routeIdx == -1 || dispatchIdx == -1 || sweepIdx == -1 {
		t.Fatalf("missing route/dispatch/sweep spans (route=%d dispatch=%d sweep=%d)", routeIdx, dispatchIdx, sweepIdx)
	}
	if got := tr.Spans[dispatchIdx].Parent; got != routeIdx {
		t.Errorf("dispatch span parent = %d, want route span %d", got, routeIdx)
	}
	if got := tr.Spans[sweepIdx].Parent; got != dispatchIdx {
		t.Errorf("shard sweep span parent = %d, want dispatch span %d", got, dispatchIdx)
	}
	if want := 3; points != want || runs != want {
		t.Errorf("trace has %d point / %d run spans, want %d of each", points, runs, want)
	}

	// Propagation proof: the owning shard's own trace endpoint answers with
	// the same client trace ID — it adopted the routed traceparent instead
	// of minting one.
	var direct struct {
		TraceID string `json:"trace_id"`
	}
	owner := n1.fix
	if shardPrefix(sv.ID) == n2.fix.name {
		owner = n2.fix
	}
	if st := getJSON(t, owner.srv.URL+"/v1/sweeps/"+sv.ID+"/trace", "", &direct); st != http.StatusOK {
		t.Fatalf("direct shard trace: status %d", st)
	}
	if direct.TraceID != client.TraceID {
		t.Errorf("shard-side trace ID = %q, want the client's %q", direct.TraceID, client.TraceID)
	}

	// The repeat through the other entry point reaches the same owner, so
	// the trace stays reachable cluster-wide.
	var tr2 struct {
		TraceID string `json:"trace_id"`
	}
	if st := getJSON(t, n2.front.URL+"/v1/sweeps/"+sv.ID+"/trace", "", &tr2); st != http.StatusOK {
		t.Fatalf("GET sweep trace via peer: status %d", st)
	}
	if tr2.TraceID != client.TraceID {
		t.Errorf("peer-side trace ID = %q, want %q", tr2.TraceID, client.TraceID)
	}
}

// sweepSpecFixture is the 3-point temperature sweep the trace tests submit.
func sweepSpecFixture() service.SweepSpec {
	return service.SweepSpec{
		Base:  service.JobSpec{Estimator: "naive", N: 100, Seed: 5},
		TempK: &service.Axis{Values: []float64{300, 310, 320}},
	}
}

// TestRouterHealthRollup runs a real degenerate estimator job on one shard
// of a two-shard cluster and requires the router's Prometheus roll-up to
// re-emit that shard's watchdog counters — shard-labeled, lint-clean.
func TestRouterHealthRollup(t *testing.T) {
	mkReal := func(name string) *shardFixture {
		svc := service.New(service.Config{
			Workers: 1, QueueCapacity: 16, CacheCapacity: 16, NodeID: name,
		})
		api := service.NewServer(svc)
		srv := httptest.NewServer(api)
		t.Cleanup(srv.Close)
		t.Cleanup(func() { _ = svc.Drain(context.Background()) })
		return &shardFixture{name: name, svc: svc, api: api, srv: srv}
	}
	shards := []*shardFixture{mkReal("s1"), mkReal("s2")}
	cfg := Config{ProbeInterval: -1}
	for _, s := range shards {
		cfg.Shards = append(cfg.Shards, Shard{Name: s.name, URL: s.srv.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// The degenerate hold-mode spec: its particle filters collapse mid-run,
	// so whichever shard owns it records ess_collapse violations.
	spec := service.JobSpec{Mode: "hold", Vdd: 0.45, N: 2000, Seed: 3}
	var view service.View
	if st, _ := postJSON(t, front.URL+"/v1/jobs", "", spec, &view); st != http.StatusAccepted && st != http.StatusOK {
		t.Fatalf("submit: status %d", st)
	}
	waitDone(t, front.URL, "", view.ID, 30*time.Second)

	var buf bytes.Buffer
	if err := rt.WritePrometheus(context.Background(), &buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if problems := obsv.LintProm(text); len(problems) > 0 {
		t.Errorf("roll-up with health counters fails lint:\n%s", strings.Join(problems, "\n"))
	}
	want := `ecripsed_health_violations_total{shard="` + shardPrefix(view.ID) + `",rule="` + obsv.RuleESSCollapse + `"}`
	if !strings.Contains(text, want) {
		t.Errorf("roll-up missing the shard-labeled watchdog counter %q in:\n%s", want, text)
	}
}
