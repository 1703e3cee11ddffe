package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
)

func instantRun(_ context.Context, _ JobSpec, c *montecarlo.Counter) (*RunResult, error) {
	c.Add(100)
	return &RunResult{}, nil
}

func TestServerBatchEndpoint(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCapacity: 32, CacheCapacity: 32, RunFunc: instantRun})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	body := `[{"seed":1},{"seed":2},{"estimator":"bogus"},{"seed":3}]`
	resp, err := http.Post(srv.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	var items []BatchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(items) != 4 {
		t.Fatalf("%d items, want 4", len(items))
	}
	for i, it := range items {
		if i == 2 {
			if it.Status != http.StatusBadRequest || it.Job != nil {
				t.Errorf("item 2: status %d, want a per-item 400", it.Status)
			}
			continue
		}
		if it.Status != http.StatusAccepted || it.Job == nil {
			t.Errorf("item %d: status %d error %q, want 202 with a job", i, it.Status, it.Error)
			continue
		}
		waitJobHTTP(t, srv.URL, it.Job.ID, StateDone, 5*time.Second)
	}

	for _, bad := range []string{`[]`, `not json`} {
		resp, err := http.Post(srv.URL+"/v1/jobs:batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST batch %q: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestServerBatchAtomicRateLimit(t *testing.T) {
	ts, err := NewTenants([]TenantConfig{{Key: "k", Name: "acme", RatePerSec: 1, Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueCapacity: 32, RunFunc: instantRun, Tenants: ts})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	// 3 specs against a burst of 2: the whole batch answers 429 with a
	// Retry-After hint, and nothing was enqueued.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs:batch",
		strings.NewReader(`[{"seed":1},{"seed":2},{"seed":3}]`))
	req.Header.Set("Authorization", "Bearer k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("refused batch still enqueued %d jobs", n)
	}
}

func TestServerQueueFullRetryAfter(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 1})
	block := make(chan struct{})
	svc.runFn = func(ctx context.Context, _ JobSpec, _ *montecarlo.Counter) (*RunResult, error) {
		select {
		case <-block:
			return &RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	defer func() { close(block); svc.Drain(context.Background()) }()

	// Fill the worker and the queue, then the next submit is back-pressured
	// with an explicit retry hint.
	for seed := 1; seed <= 2; seed++ {
		if _, status := postJob(t, srv.URL, `{"seed":`+string(rune('0'+seed))+`}`); status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"seed":9}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("full-queue Retry-After = %q, want 1", ra)
	}
}

func TestServerBodyLimit(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4, RunFunc: instantRun})
	defer svc.Drain(context.Background())
	api := NewServer(svc)
	api.MaxBodyBytes = 256
	srv := httptest.NewServer(api)
	defer srv.Close()

	huge := `{"estimator":"` + strings.Repeat("x", 1024) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/jobs:batch"} {
		body := huge
		if path == "/v1/jobs:batch" {
			body = "[" + huge + "]"
		}
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestRemoteCacheReadThrough pins the cluster read-through: a node that
// misses its local cache consults the RemoteCache hook and, on a hit, adopts
// the peer's payload without running anything.
func TestRemoteCacheReadThrough(t *testing.T) {
	peer := New(Config{Workers: 1, QueueCapacity: 4, CacheCapacity: 4, RunFunc: instantRun})
	defer peer.Drain(context.Background())

	spec := JobSpec{Seed: 42}
	j, err := peer.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("peer submit: %v", err)
	}
	waitState(t, j, StateDone, 2*time.Second)
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	key := norm.Key()
	want, ok := peer.CachedResult(key)
	if !ok {
		t.Fatal("peer did not cache the result")
	}

	var lookups int
	local := New(Config{
		Workers: 1, QueueCapacity: 4, CacheCapacity: 4, RunFunc: instantRun,
		RemoteCache: func(k string) (json.RawMessage, bool) {
			lookups++
			if k != key {
				t.Errorf("remote lookup for %s, want %s", k, key)
			}
			return peer.CachedResult(k)
		},
	})
	defer local.Drain(context.Background())

	j2, err := local.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("local submit: %v", err)
	}
	v := j2.Snapshot(true)
	if !v.Cached || v.State != StateDone {
		t.Fatalf("read-through submit: cached=%v state=%s, want an immediate cache answer", v.Cached, v.State)
	}
	if !bytes.Equal(v.Result, want) {
		t.Error("adopted payload differs from the peer's cached bytes")
	}
	if lookups != 1 {
		t.Errorf("remote lookups = %d, want 1", lookups)
	}
	m := local.Snapshot()
	if m.RemoteCacheHits != 1 {
		t.Errorf("RemoteCacheHits = %d, want 1", m.RemoteCacheHits)
	}
	if m.SimsTotal != 0 {
		t.Errorf("adopting a remote result consumed %d sims, want 0", m.SimsTotal)
	}

	// The adopted payload is now served from the local cache too: the next
	// identical submit must not consult the peer again.
	j3, err := local.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("repeat local submit: %v", err)
	}
	if v := j3.Snapshot(false); !v.Cached {
		t.Error("repeat submit missed the local cache")
	}
	if lookups != 1 {
		t.Errorf("repeat submit consulted the peer (lookups = %d)", lookups)
	}
}

func TestNodeIDNamespacesJobIDs(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4, NodeID: "s7", RunFunc: instantRun})
	defer svc.Drain(context.Background())
	j, err := svc.Submit(context.Background(), JobSpec{Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !strings.HasPrefix(j.ID, "s7-j") {
		t.Errorf("job ID %q lacks the s7- node prefix", j.ID)
	}
	if got, err := svc.Get(j.ID); err != nil || got.ID != j.ID {
		t.Errorf("Get(%s) = (%v, %v)", j.ID, got, err)
	}
	if m := svc.Snapshot(); m.NodeID != "s7" {
		t.Errorf("metrics NodeID = %q, want s7", m.NodeID)
	}
}
