package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRunnerErrorFailsJob requires a job whose runner errors without anyone
// canceling it to end failed, not canceled: a warm_in key that no cache
// holds is such an error, and /metrics must count it that way.
func TestRunnerErrorFailsJob(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	spec := `{"rtn": true, "vdd": 0.5, "alpha": 0.3, "n": 2000, "m": 5, "warm_in": "` + strings.Repeat("ab", 32) + `"}`
	v, status := postJob(t, ts.URL, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	failed := waitJobHTTP(t, ts.URL, v.ID, StateFailed, time.Minute)
	if !strings.Contains(failed.Error, "not available") {
		t.Fatalf("error = %q, want the missing predecessor named", failed.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if m.Jobs[StateFailed] != 1 || m.Jobs[StateCanceled] != 0 {
		t.Fatalf("metrics jobs = %v, want failed 1 and canceled 0", m.Jobs)
	}
}

// TestNoFailureRegionFailsJob: hold mode at 0.7 V has no failure region
// within the engine's RMax, so the job must fail naming it and cache
// nothing, rather than finish with an estimate of 0.
func TestNoFailureRegionFailsJob(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	defer svc.Drain(ctx)
	j, err := svc.Submit(ctx, JobSpec{Mode: "hold", Vdd: 0.7, N: 2000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j, time.Minute)
	if v := j.Snapshot(false); v.State != StateFailed || !strings.Contains(v.Error, "no failure region within RMax") {
		t.Fatalf("state %q, error %q; want failed with no failure region", v.State, v.Error)
	}
	if _, ok := svc.CachedResult(j.Key); ok {
		t.Fatal("a run with no failure region was cached")
	}
}

// TestMaxSimsBudget pins both sides of a max_sims stop on the Fig. 7 shape,
// with both budgets derived from an unbudgeted run's cost split so they
// stay on their side of stage 2's start whatever boundary search costs. A
// budget spent inside stage 1 reaches no estimate: the job fails and
// nothing is cached. A budget spent a few stage-2 batches in leaves a
// partial series, the deterministic result of its spec: the job is done,
// cached, byte-identical at parallelism 1, 2 and 8, and its estimate
// counts only the draws stage 2 folded.
func TestMaxSimsBudget(t *testing.T) {
	ctx := context.Background()
	base := JobSpec{RTN: true, Vdd: 0.5, Alpha: 0.3, N: 20000, M: 5}
	full, err := RunSpec(ctx, base, nil)
	if err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	c := full.Cost
	if full.Estimate.N != base.N {
		t.Fatalf("complete run: estimate N = %d, want the spec's %d", full.Estimate.N, base.N)
	}
	beforeStage2 := c.Init + c.Warmup + c.Stage1
	earlyBudget := c.Init + c.Warmup + c.Stage1/2 // inside stage 1
	lateBudget := beforeStage2 + c.Stage2/8       // a few stage-2 batches in
	t.Logf("unbudgeted: init %d, warm-up %d, stage 1 %d, stage 2 %d; budgets %d and %d",
		c.Init, c.Warmup, c.Stage1, c.Stage2, earlyBudget, lateBudget)

	svc := New(Config{Workers: 1, QueueCapacity: 4})
	defer svc.Drain(ctx)

	early := base
	early.MaxSims = earlyBudget
	j, err := svc.Submit(ctx, early)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j, 2*time.Minute)
	name := fmt.Sprintf("max_sims budget of %d", earlyBudget)
	if v := j.Snapshot(false); v.State != StateFailed || !strings.Contains(v.Error, name) {
		t.Fatalf("max_sims %d: state %q, error %q; want failed naming the budget", earlyBudget, v.State, v.Error)
	}
	if _, ok := svc.CachedResult(j.Key); ok {
		t.Fatalf("max_sims %d: a run that reached no estimate was cached", earlyBudget)
	}

	late := base
	late.MaxSims = lateBudget
	var want []byte
	for _, par := range []int{1, 2, 8} {
		spec := late
		spec.Parallelism = par
		res, err := RunSpec(ctx, spec, nil)
		if err != nil {
			t.Fatalf("max_sims %d at parallelism %d: %v", lateBudget, par, err)
		}
		got, _ := json.Marshal(res)
		if want == nil {
			want = got
			t.Logf("max_sims %d: %d series points, N %d, rel_err %.3f, %d sims",
				lateBudget, len(res.Series), res.Estimate.N, float64(res.Estimate.RelErr), res.Cost.Total)
			if len(res.Series) == 0 || res.Estimate.P <= 0 || res.Cost.Total < lateBudget {
				t.Fatalf("max_sims %d: want a partial series with an estimate, got %s", lateBudget, got)
			}
			if res.Estimate.N <= 0 || res.Estimate.N >= base.N {
				t.Fatalf("max_sims %d: estimate N = %d, want the folded draws, fewer than the spec's %d",
					lateBudget, res.Estimate.N, base.N)
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("max_sims %d: parallelism %d result differs from parallelism 1:\n%s\n%s", lateBudget, par, got, want)
		}
	}
	j, err = svc.Submit(ctx, late)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j, 2*time.Minute)
	if j.State() != StateDone || !bytes.Equal(j.Result(), want) {
		t.Fatalf("max_sims %d job: state %q, result %s; want done with %s", lateBudget, j.State(), j.Result(), want)
	}
	if _, ok := svc.CachedResult(j.Key); !ok {
		t.Fatalf("max_sims %d: the done job's result was not cached", lateBudget)
	}
}
