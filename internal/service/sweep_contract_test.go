package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
)

// foldRun is a deterministic point runner whose payload is a pure function
// of the spec, with per-point boundary and warm-up costs so the warm-start
// savings fold is non-trivial.
func foldRun(_ context.Context, spec JobSpec, c *montecarlo.Counter) (*RunResult, error) {
	alpha := 0.0
	if len(spec.Sweep) == 1 {
		alpha = spec.Sweep[0]
	}
	k := int64(alpha*10) + 1
	c.Add(int64(spec.N) + k)
	return &RunResult{
		Estimate: Estimate{P: 1e-7 * (1 + alpha), CI95: 1e-9, N: spec.N, Sims: int64(spec.N) + k},
		Cost:     CostSplit{Total: int64(spec.N) + k, Init: 40 * k, Warmup: 7 * k},
	}, nil
}

func foldSpec() SweepSpec {
	return SweepSpec{
		Base:      JobSpec{RTN: true, Seed: 11, N: 500, M: 2},
		Alpha:     &Axis{From: 0, To: 1, Steps: 5},
		WarmStart: true,
	}
}

// TestRunSweepLocalStopsWhenContextDone requires a cold sweep to start no
// point after its context is done: the points already run stay in the
// result, and the error carries the cancellation.
func TestRunSweepLocalStopsWhenContextDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := foldSpec()
	spec.WarmStart = false
	started := 0
	run := func(ctx context.Context, s JobSpec, c *montecarlo.Counter) (*RunResult, error) {
		if started++; started == 2 {
			cancel()
		}
		return foldRun(ctx, s, c)
	}
	res, err := RunSweepLocal(ctx, spec, run)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started != 2 || len(res.Points) != 2 {
		t.Fatalf("started %d points and folded %d of 5, want 2 and 2", started, len(res.Points))
	}
}

// TestSweepAggregateMatchesRunSweepLocal requires the service controller's
// aggregate — computed, then answered from the cache — to equal the
// in-process RunSweepLocal fold for the same spec and runner.
func TestSweepAggregateMatchesRunSweepLocal(t *testing.T) {
	want, err := RunSweepLocal(context.Background(), foldSpec(), foldRun)
	if err != nil {
		t.Fatalf("RunSweepLocal: %v", err)
	}
	if want.SimsSaved == 0 || want.WarmPoints == 0 {
		t.Fatalf("fixture folds no warm savings: %+v", want)
	}

	svc := New(Config{Workers: 2, QueueCapacity: 32, CacheCapacity: 64, RunFunc: foldRun})
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	body, _ := json.Marshal(foldSpec())

	for _, run := range []string{"computed", "cached"} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("%s: POST /v1/sweeps: %v", run, err)
		}
		var sv SweepView
		if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
			t.Fatalf("%s: decode: %v", run, err)
		}
		resp.Body.Close()
		got := waitSweepDone(t, ts.URL, sv.ID, 10*time.Second)
		if got.State != StateDone || got.Result == nil {
			t.Fatalf("%s: sweep ended %q (%s)", run, got.State, got.Error)
		}
		res := got.Result
		if res.TotalSims != want.TotalSims || res.SimsSaved != want.SimsSaved || res.WarmPoints != want.WarmPoints {
			t.Errorf("%s: total_sims %d/%d, sims_saved %d/%d, warm_points %d/%d (service/local)", run,
				res.TotalSims, want.TotalSims, res.SimsSaved, want.SimsSaved, res.WarmPoints, want.WarmPoints)
		}
		if len(res.Points) != len(want.Points) {
			t.Fatalf("%s: %d points, want %d", run, len(res.Points), len(want.Points))
		}
		for i := range res.Points {
			g, w := res.Points[i], want.Points[i]
			if g.Index != w.Index || g.Key != w.Key || g.Warm != w.Warm ||
				!reflect.DeepEqual(g.Estimate, w.Estimate) || !reflect.DeepEqual(g.Cost, w.Cost) {
				t.Errorf("%s: point %d = %+v, local %+v", run, i, g, w)
			}
		}
	}
}

// TestSweepPointJobsCarryTenant submits a sweep with an API key and requires
// every point job to carry that tenant, with the tenant's simulation usage
// equal to the sum of its point jobs' simulations.
func TestSweepPointJobsCarryTenant(t *testing.T) {
	tenants, err := NewTenants([]TenantConfig{{Key: "k", Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueCapacity: 32, RunFunc: foldRun, Tenants: tenants})
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	body, _ := json.Marshal(foldSpec())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(string(body)))
	req.Header.Set("Authorization", "Bearer k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	var sv SweepView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sv.Tenant != "acme" {
		t.Fatalf("sweep submit: status %d tenant %q", resp.StatusCode, sv.Tenant)
	}
	sw, err := svc.GetSweep(sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sweep not terminal within 10s")
	}
	if st := sw.State(); st != StateDone {
		t.Fatalf("sweep ended %q", st)
	}
	var sims int64
	for _, p := range sw.Snapshot(true).Points {
		j, err := svc.Get(p.JobID)
		if err != nil {
			t.Fatalf("point %d job %q: %v", p.Index, p.JobID, err)
		}
		<-j.Done()
		if v := j.Snapshot(false); v.Tenant != "acme" {
			t.Errorf("point %d job %s tenant %q, want acme", p.Index, j.ID, v.Tenant)
		}
		sims += j.Sims()
	}
	if sims == 0 {
		t.Fatal("point jobs consumed no simulations")
	}
	// Usage is charged as each point job's terminal transition commits,
	// just after its done channel closes.
	deadline := time.Now().Add(5 * time.Second)
	for tenants.Views()["acme"].Sims != sims {
		if time.Now().After(deadline) {
			t.Fatalf("tenant sims usage %d, want %d (sum of point jobs)", tenants.Views()["acme"].Sims, sims)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
