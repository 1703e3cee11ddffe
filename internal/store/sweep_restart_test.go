package store

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/obsv"
	"ecripse/internal/service"
)

// sweepLife is one process life of a service on a data directory, served
// over HTTP.
type sweepLife struct {
	fs  *FileStore
	svc *service.Service
	srv *httptest.Server
}

func startSweepLife(t *testing.T, dir string, run func(context.Context, service.JobSpec, *montecarlo.Counter) (*service.RunResult, error)) *sweepLife {
	t.Helper()
	fs, err := Open(dir, Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	svc := service.New(service.Config{Workers: 2, QueueCapacity: 64, Store: fs, RunFunc: run})
	return &sweepLife{fs: fs, svc: svc, srv: httptest.NewServer(service.NewServer(svc))}
}

// stop drains the service, so every transition and trace is journaled, and
// closes the store.
func (l *sweepLife) stop(t *testing.T) {
	t.Helper()
	l.srv.Close()
	if err := l.svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := l.fs.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
}

func (l *sweepLife) get(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(l.srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func (l *sweepLife) submitSweep(t *testing.T, spec service.SweepSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(l.srv.URL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	var v service.SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d, err %v", resp.StatusCode, err)
	}
	return v.ID
}

type sweepTrace struct {
	TraceID string          `json:"trace_id"`
	Spans   []obsv.SpanView `json:"spans"`
}

// TestRecoverySweepTraceSurvivesRestart finishes a warm sweep, restarts the
// service on the same store, and requires the sweep to serve the same trace
// ID and span count as before the restart: the controller's own spans are
// journaled and attached back to the sweep.
func TestRecoverySweepTraceSurvivesRestart(t *testing.T) {
	dir := testDir(t)
	spec := service.SweepSpec{
		Base:      service.JobSpec{RTN: true, Seed: 11, N: 500, M: 2},
		Alpha:     &service.Axis{Values: []float64{0, 0.25, 0.5, 0.75}},
		WarmStart: true,
	}

	first := startSweepLife(t, dir, sweepPointRunFunc(0, nil, nil))
	id := first.submitSweep(t, spec)
	sw, err := first.svc.GetSweep(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sweep not terminal within 10s")
	}
	var before sweepTrace
	first.get(t, "/v1/sweeps/"+id+"/trace", &before)
	if len(before.TraceID) != 32 || len(before.Spans) == 0 {
		t.Fatalf("before restart: trace_id %q, %d spans", before.TraceID, len(before.Spans))
	}
	first.stop(t) // the controller journals its trace before Drain returns

	second := startSweepLife(t, dir, sweepPointRunFunc(0, nil, nil))
	defer second.stop(t)
	var after sweepTrace
	second.get(t, "/v1/sweeps/"+id+"/trace", &after)
	if after.TraceID != before.TraceID || len(after.Spans) != len(before.Spans) {
		t.Fatalf("after restart: trace_id %q with %d spans, before %q with %d",
			after.TraceID, len(after.Spans), before.TraceID, len(before.Spans))
	}
	names := func(spans []obsv.SpanView) []string {
		out := make([]string, len(spans))
		for i, sp := range spans {
			out[i] = sp.Name
		}
		return out
	}
	if !reflect.DeepEqual(names(after.Spans), names(before.Spans)) {
		t.Errorf("span names changed across the restart:\n after %v\n before %v", names(after.Spans), names(before.Spans))
	}
}

// TestRecoveryCanceledSweepKeepsPointsDone cancels a warm sweep part way
// through its grid, restarts the service on the same store, and requires
// the sweep to report the same points_done and per-point status as before.
func TestRecoveryCanceledSweepKeepsPointsDone(t *testing.T) {
	dir := testDir(t)
	spec := service.SweepSpec{
		Base:      service.JobSpec{RTN: true, Seed: 11, N: 500, M: 2},
		Alpha:     &service.Axis{From: 0, To: 1, Steps: 20},
		WarmStart: true,
	}
	// Points run instantly up to alpha 0.15, then block until canceled.
	hold := func(ctx context.Context, js service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
		if len(js.Sweep) == 1 && js.Sweep[0] > 0.15 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return sweepPointRunFunc(0, nil, nil)(ctx, js, c)
	}

	first := startSweepLife(t, dir, hold)
	id := first.submitSweep(t, spec)
	sw, err := first.svc.GetSweep(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sw.PointsDone() < 3 || len(sw.Snapshot(true).Points[3].JobID) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stalled at %d points", sw.PointsDone())
		}
		time.Sleep(time.Millisecond)
	}
	if !sw.Cancel() {
		t.Fatal("cancel of a running sweep had no effect")
	}
	<-sw.Done()
	var before service.SweepView
	first.get(t, "/v1/sweeps/"+id, &before)
	if before.State != service.StateCanceled || before.PointsDone == 0 || before.PointsDone >= before.NumPoints {
		t.Fatalf("before restart: state %q, %d/%d points", before.State, before.PointsDone, before.NumPoints)
	}
	first.stop(t)

	second := startSweepLife(t, dir, hold)
	defer second.stop(t)
	var after service.SweepView
	second.get(t, "/v1/sweeps/"+id, &after)
	if after.State != before.State || after.PointsDone != before.PointsDone || after.NumPoints != before.NumPoints {
		t.Fatalf("after restart: %q %d/%d points, before %q %d/%d",
			after.State, after.PointsDone, after.NumPoints, before.State, before.PointsDone, before.NumPoints)
	}
	if !reflect.DeepEqual(after.Points, before.Points) {
		t.Errorf("per-point status changed across the restart:\n after %+v\n before %+v", after.Points, before.Points)
	}
}

// TestRecoveryResultWithoutDoneKeepsTrace replays a job whose trace and
// result reached the journal but whose done record did not: the restarted
// service must report it done — not a cache answer — with the journaled
// timeline, so a sweep point answered from its result still finds the
// engine spans that computed it.
func TestRecoveryResultWithoutDoneKeepsTrace(t *testing.T) {
	fs, err := Open(testDir(t), Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer fs.Close()
	spec := service.JobSpec{Estimator: service.EstNaive, Seed: 3, N: 200}
	payload := marshalPayload(t, spec) // normalizes spec
	raw, _ := json.Marshal(spec)
	trace := json.RawMessage(`{"trace_id":"0af7651916cd43dd8448eb211c80319c","spans":[{"name":"run","parent":-1,"start":"2026-01-01T00:00:00Z","dur_ms":1}]}`)
	now := time.Now()
	for _, err := range []error{
		fs.AppendSubmit("j000001", raw, spec.Key(), "", false, now),
		fs.AppendState("j000001", service.StateRunning, "", now),
		fs.AppendTrace("j000001", trace),
		fs.AppendResult(spec.Key(), payload),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	svc := service.New(service.Config{Workers: 1, QueueCapacity: 4, Store: fs, RunFunc: runFunc(1<<62, nil, &sync.Map{})})
	defer svc.Drain(context.Background())
	j, err := svc.Get("j000001")
	if err != nil {
		t.Fatal(err)
	}
	v := j.Snapshot(true)
	if v.State != service.StateDone || v.Cached || string(v.Result) != string(payload) {
		t.Fatalf("replayed job: state %q cached %v result %s", v.State, v.Cached, v.Result)
	}
	if got := j.TracePayload(); string(got) != string(trace) {
		t.Fatalf("replayed job trace = %s, want the journaled %s", got, trace)
	}
}
