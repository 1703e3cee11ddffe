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

// TestMaxSimsBudget pins both sides of a max_sims stop on the Fig. 7 shape.
// A budget spent before the first stage-2 batch reaches no estimate: the job
// fails and nothing is cached. A budget spent inside stage 2 leaves a
// partial series, the deterministic result of its spec: the job is done,
// cached, and byte-identical at parallelism 1, 2 and 8.
func TestMaxSimsBudget(t *testing.T) {
	ctx := context.Background()
	base := JobSpec{RTN: true, Vdd: 0.5, Alpha: 0.3, N: 20000, M: 5}
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	defer svc.Drain(ctx)

	early := base
	early.MaxSims = 1700
	j, err := svc.Submit(ctx, early)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j, 2*time.Minute)
	if v := j.Snapshot(false); v.State != StateFailed || !strings.Contains(v.Error, "max_sims budget of 1700") {
		t.Fatalf("max_sims 1700: state %q, error %q; want failed naming the budget", v.State, v.Error)
	}
	if _, ok := svc.CachedResult(j.Key); ok {
		t.Fatal("max_sims 1700: a run that reached no estimate was cached")
	}

	late := base
	late.MaxSims = 1900
	var want []byte
	for _, par := range []int{1, 2, 8} {
		spec := late
		spec.Parallelism = par
		res, err := RunSpec(ctx, spec, nil)
		if err != nil {
			t.Fatalf("max_sims 1900 at parallelism %d: %v", par, err)
		}
		got, _ := json.Marshal(res)
		if want == nil {
			want = got
			t.Logf("max_sims 1900: %d series points, rel_err %.3f, %d sims", len(res.Series), float64(res.Estimate.RelErr), res.Cost.Total)
			if len(res.Series) == 0 || res.Estimate.P <= 0 || res.Cost.Total < 1900 {
				t.Fatalf("max_sims 1900: want a partial series with an estimate, got %s", got)
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("max_sims 1900: parallelism %d result differs from parallelism 1:\n%s\n%s", par, got, want)
		}
	}
	j, err = svc.Submit(ctx, late)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j, 2*time.Minute)
	if j.State() != StateDone || !bytes.Equal(j.Result(), want) {
		t.Fatalf("max_sims 1900 job: state %q, result %s; want done with %s", j.State(), j.Result(), want)
	}
	if _, ok := svc.CachedResult(j.Key); !ok {
		t.Fatal("max_sims 1900: the done job's result was not cached")
	}
}
