package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecripse"
	"ecripse/internal/montecarlo"
)

func postJob(t *testing.T, base string, spec string) (View, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var v View
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("decode submit response %s: %v", body, err)
		}
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, base, id string) View {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET job %s: status %d: %s", id, resp.StatusCode, body)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

func waitJobHTTP(t *testing.T, base, id string, want State, within time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		v := getJob(t, base, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q within %s", id, want, within)
	return View{}
}

// TestServerEndToEnd is the acceptance integration test: submit an RDF-only
// ECRIPSE job over HTTP, poll it to completion, and require the estimate to
// match the same-seed library call exactly; then resubmit the identical
// spec and require a byte-identical cache answer with zero additional
// simulations; then cancel a long naive-MC job and require its simulation
// counter to stop advancing.
func TestServerEndToEnd(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCapacity: 8})
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	const (
		nis  = 2000
		seed = 7
	)

	// Submit → poll to completion.
	v, status := postJob(t, ts.URL, fmt.Sprintf(`{"n": %d, "seed": %d}`, nis, seed))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	done := waitJobHTTP(t, ts.URL, v.ID, StateDone, 2*time.Minute)
	var got RunResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatalf("decode result: %v", err)
	}

	// The service result must equal the same-seed library call exactly.
	cell := ecripse.NewCell(ecripse.VddNominal)
	want, err := ecripse.New(cell, ecripse.Options{NIS: nis}).FailureProbability(seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate.Stats() != want.Estimate {
		t.Fatalf("service estimate %+v != library estimate %+v", got.Estimate.Stats(), want.Estimate)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("series length %d != library %d", len(got.Series), len(want.Series))
	}
	for i, p := range want.Series {
		q := got.Series[i]
		if q.Sims != p.Sims || q.P != p.P || q.CI95 != p.CI95 {
			t.Fatalf("series[%d] %+v != library %+v", i, q, p)
		}
	}
	if got.Cost.Total != want.Estimate.Sims {
		t.Fatalf("cost total %d != sims %d", got.Cost.Total, want.Estimate.Sims)
	}

	// Duplicate submission: answered inline from the cache, byte-identical,
	// zero new simulations.
	simsBefore := svc.Snapshot().SimsTotal
	dup, status := postJob(t, ts.URL, fmt.Sprintf(`{"n": %d, "seed": %d}`, nis, seed))
	if status != http.StatusOK {
		t.Fatalf("duplicate submit status = %d, want 200 (cache hit)", status)
	}
	if !dup.Cached {
		t.Fatal("duplicate submission not flagged cached")
	}
	if dup.State != StateDone {
		t.Fatalf("duplicate state = %q, want done", dup.State)
	}
	if !bytes.Equal(dup.Result, done.Result) {
		t.Fatalf("cached result not byte-identical:\n%s\n%s", dup.Result, done.Result)
	}
	m := svc.Snapshot()
	if m.SimsTotal != simsBefore {
		t.Fatalf("cache hit cost simulations: %d -> %d", simsBefore, m.SimsTotal)
	}
	if m.CacheHits == 0 {
		t.Fatal("metrics did not record the cache hit")
	}

	// Cancellation: a huge naive-MC job is stopped mid-run and its
	// simulation counter freezes.
	v, status = postJob(t, ts.URL, `{"estimator": "naive", "n": 50000000, "seed": 3}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit naive: status %d", status)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if jv := getJob(t, ts.URL, v.ID); jv.State == StateRunning && jv.Sims > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("naive job never started simulating")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d, want 202", resp.StatusCode)
	}
	canceled := waitJobHTTP(t, ts.URL, v.ID, StateCanceled, 30*time.Second)
	time.Sleep(100 * time.Millisecond)
	if again := getJob(t, ts.URL, v.ID); again.Sims != canceled.Sims {
		t.Fatalf("counter advanced after cancel: %d -> %d", canceled.Sims, again.Sims)
	}
}

func TestServerEventsStream(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	defer svc.Drain(context.Background())
	srv := NewServer(svc)
	srv.EventInterval = 10 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	v, status := postJob(t, ts.URL, `{"estimator": "naive", "n": 4000, "seed": 5}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	var progress int
	var final View
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				progress++
			}
			if event == "done" {
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("decode done event: %v", err)
				}
			}
		}
	}
	if final.ID != v.ID || final.State != StateDone {
		t.Fatalf("final event = %+v, want done view of %s", final, v.ID)
	}
	if final.Result == nil {
		t.Fatal("done event carries no result")
	}
	if progress == 0 {
		t.Fatal("no progress events before completion")
	}
}

// TestServerDeleteCompletedConflict pins the contract for cancelling a job
// that already reached a terminal state: DELETE answers 409 Conflict and the
// body carries the job's terminal view, so clients can tell "too late to
// cancel" apart from "no such job" (404) and from an accepted cancel (202).
func TestServerDeleteCompletedConflict(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	defer svc.Drain(context.Background())
	svc.runFn = func(context.Context, JobSpec, *montecarlo.Counter) (*RunResult, error) {
		return &RunResult{}, nil
	}
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	v, status := postJob(t, ts.URL, `{"seed": 11}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	waitJobHTTP(t, ts.URL, v.ID, StateDone, 10*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE done job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on completed job: status = %d, want 409", resp.StatusCode)
	}
	var got View
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode 409 body: %v", err)
	}
	if got.ID != v.ID || got.State != StateDone {
		t.Fatalf("409 body = %+v, want terminal view of %s", got, v.ID)
	}

	// The job is untouched: still done, still retrievable.
	if after := getJob(t, ts.URL, v.ID); after.State != StateDone {
		t.Fatalf("job state after rejected cancel = %q", after.State)
	}
}

func TestServerBackpressureAndErrors(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 1})
	release := make(chan struct{})
	svc.runFn = func(ctx context.Context, _ JobSpec, _ *montecarlo.Counter) (*RunResult, error) {
		select {
		case <-release:
			return &RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	j1, status := postJob(t, ts.URL, `{"seed": 1}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit 1 status = %d", status)
	}
	waitJobHTTP(t, ts.URL, j1.ID, StateRunning, 5*time.Second)
	if _, status = postJob(t, ts.URL, `{"seed": 2}`); status != http.StatusAccepted {
		t.Fatalf("submit 2 status = %d", status)
	}
	if _, status = postJob(t, ts.URL, `{"seed": 3}`); status != http.StatusTooManyRequests {
		t.Fatalf("submit beyond capacity: status = %d, want 429", status)
	}

	// Malformed and invalid specs → 400.
	if _, status = postJob(t, ts.URL, `{"estimator": "quantum"}`); status != http.StatusBadRequest {
		t.Fatalf("invalid estimator: status = %d, want 400", status)
	}
	// Unknown fields → 400 naming the field, as a job, a batch and a sweep
	// base alike (adaptive_grid is a removed spec field).
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/jobs", `{"nope": 1}`, "nope"},
		{"/v1/jobs", `{"adaptive_grid": true}`, "adaptive_grid"},
		{"/v1/jobs:batch", `[{"adaptive_grid": true}]`, "adaptive_grid"},
		{"/v1/sweeps", `{"base": {"adaptive_grid": true}}`, "adaptive_grid"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.field) {
			t.Fatalf("unknown field %q on %s: status = %d, body %s; want 400 naming the field",
				tc.field, tc.path, resp.StatusCode, body)
		}
	}

	// Unknown job → 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/jxxxxxx")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}

	// healthz flips to 503 once draining.
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	close(release)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if _, status = postJob(t, ts.URL, `{"seed": 4}`); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status = %d, want 503", status)
	}

	// Metrics endpoint stays readable and reflects the final state.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if !m.Draining || m.Workers != 1 || m.Jobs[StateDone] != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}
