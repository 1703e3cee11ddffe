package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/service"
)

// seedPayload is the deterministic result an uninterrupted run of a spec
// would produce: it depends only on the spec, exactly like the real runner.
func seedPayload(spec service.JobSpec) *service.RunResult {
	return &service.RunResult{
		Estimate: service.Estimate{P: float64(spec.Seed) * 1e-7, N: spec.N, Sims: int64(spec.N)},
		Cost:     service.CostSplit{Total: int64(spec.N)},
	}
}

func marshalPayload(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	b, err := json.Marshal(seedPayload(spec))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// runFunc builds a deterministic test runner. Seeds >= blockFrom block
// until release is closed (simulating long estimator runs in flight when
// the process dies); calls counts invocations per seed.
func runFunc(blockFrom int64, release <-chan struct{}, calls *sync.Map) func(context.Context, service.JobSpec, *montecarlo.Counter) (*service.RunResult, error) {
	return func(ctx context.Context, spec service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
		n, _ := calls.LoadOrStore(spec.Seed, new(int64))
		*n.(*int64)++
		if spec.Seed >= blockFrom {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		c.Add(int64(spec.N))
		return seedPayload(spec), nil
	}
}

func waitTerminal(t *testing.T, j *service.Job, within time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(within):
		t.Fatalf("job %s not terminal within %s (state %q)", j.ID, within, j.State())
	}
}

// TestRecoveryServiceReplay is the acceptance test for the persistent
// store: a service journaling to a data dir "crashes" (no drain, store cut
// off mid-flight), and a second service opened on the same dir serves the
// same job IDs — completed results byte-identical from the restored cache
// without re-simulation, interrupted jobs re-enqueued and finishing with
// the exact payload an uninterrupted run would have produced.
func TestRecoveryServiceReplay(t *testing.T) {
	dir := testDir(t)
	fs1, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	release := make(chan struct{})
	defer close(release) // lets the abandoned first-life worker unwind
	var calls1 sync.Map
	svc1 := service.New(service.Config{
		Workers: 1, QueueCapacity: 8,
		Store:   fs1,
		RunFunc: runFunc(100, release, &calls1),
	})

	spec := func(seed int64) service.JobSpec {
		return service.JobSpec{Estimator: service.EstNaive, Seed: seed, N: 1000}
	}

	// A completes; B blocks mid-run; C and D sit in the queue; E duplicates
	// A's spec and is answered inline from the cache.
	jA, err := svc1.Submit(context.Background(), spec(1))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	waitTerminal(t, jA, 5*time.Second)
	resultA := append([]byte(nil), jA.Result()...)
	if want := marshalPayload(t, spec(1)); !bytes.Equal(resultA, want) {
		t.Fatalf("unexpected pre-crash payload:\n%s\n%s", resultA, want)
	}

	jB, err := svc1.Submit(context.Background(), spec(100))
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); jB.State() != service.StateRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("B never started (state %q)", jB.State())
		}
		time.Sleep(time.Millisecond)
	}
	jC, err := svc1.Submit(context.Background(), spec(101))
	if err != nil {
		t.Fatalf("submit C: %v", err)
	}
	jD, err := svc1.Submit(context.Background(), spec(102))
	if err != nil {
		t.Fatalf("submit D: %v", err)
	}
	jE, err := svc1.Submit(context.Background(), spec(1))
	if err != nil {
		t.Fatalf("submit E: %v", err)
	}
	waitTerminal(t, jE, 5*time.Second)
	if !jE.Snapshot(true).Cached {
		t.Fatal("E was not a cache hit")
	}

	// Crash: the store is cut off with B running and C, D queued. No drain.
	if err := fs1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Second life: same dir, a runner that never blocks.
	fs2, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := fs2.Recover()
	if len(rec.Jobs) != 5 {
		t.Fatalf("recovered %d jobs, want 5", len(rec.Jobs))
	}
	wantStates := map[string]service.State{
		jA.ID: service.StateDone,
		jB.ID: service.StateRunning,
		jC.ID: service.StateQueued,
		jD.ID: service.StateQueued,
		jE.ID: service.StateDone,
	}
	for _, rj := range rec.Jobs {
		if rj.State != wantStates[rj.ID] {
			t.Fatalf("recovered %s state = %q, want %q", rj.ID, rj.State, wantStates[rj.ID])
		}
	}

	var calls2 sync.Map
	svc2 := service.New(service.Config{
		Workers: 1, QueueCapacity: 8,
		Store:   fs2,
		RunFunc: runFunc(1<<62, nil, &calls2),
	})

	// Previously completed jobs come back under their IDs with the result
	// attached, and nothing re-simulates their specs.
	gA, err := svc2.Get(jA.ID)
	if err != nil {
		t.Fatalf("get A after restart: %v", err)
	}
	if gA.State() != service.StateDone || !bytes.Equal(gA.Result(), resultA) {
		t.Fatalf("restored A: state %q, byte-identical %v", gA.State(), bytes.Equal(gA.Result(), resultA))
	}
	gE, err := svc2.Get(jE.ID)
	if err != nil {
		t.Fatalf("get E after restart: %v", err)
	}
	if gE.State() != service.StateDone || !bytes.Equal(gE.Result(), resultA) {
		t.Fatalf("restored E: state %q", gE.State())
	}

	// Interrupted jobs were re-enqueued and complete with the payload an
	// uninterrupted run would have produced.
	for _, id := range []string{jB.ID, jC.ID, jD.ID} {
		g, err := svc2.Get(id)
		if err != nil {
			t.Fatalf("get %s after restart: %v", id, err)
		}
		waitTerminal(t, g, 10*time.Second)
		if g.State() != service.StateDone {
			t.Fatalf("replayed %s state = %q (err %q)", id, g.State(), g.Snapshot(false).Error)
		}
		if want := marshalPayload(t, g.Spec); !bytes.Equal(g.Result(), want) {
			t.Fatalf("replayed %s result differs from an uninterrupted run:\n%s\n%s", id, g.Result(), want)
		}
	}
	if n, ok := calls2.Load(int64(1)); ok {
		t.Fatalf("seed 1 was re-simulated %d times after restart despite the restored cache", *n.(*int64))
	}

	m := svc2.Snapshot()
	if m.ReplayedJobs != 3 {
		t.Fatalf("replayed_jobs = %d, want 3", m.ReplayedJobs)
	}
	if m.Store == nil || m.Store.Appends == 0 {
		t.Fatalf("store metrics missing: %+v", m.Store)
	}

	// Fresh submissions continue the ID sequence instead of reusing it.
	jF, err := svc2.Submit(context.Background(), spec(7))
	if err != nil {
		t.Fatalf("submit F: %v", err)
	}
	if want := fmt.Sprintf("j%06d", 6); jF.ID != want {
		t.Fatalf("post-recovery id = %q, want %q", jF.ID, want)
	}
	waitTerminal(t, jF, 5*time.Second)

	if err := svc2.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fs2.Close()

	// Third life: everything is terminal now; nothing runs at all.
	fs3, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	var calls3 sync.Map
	svc3 := service.New(service.Config{
		Workers: 1, QueueCapacity: 8,
		Store:   fs3,
		RunFunc: runFunc(1<<62, nil, &calls3),
	})
	for _, id := range []string{jA.ID, jB.ID, jC.ID, jD.ID, jE.ID, jF.ID} {
		g, err := svc3.Get(id)
		if err != nil {
			t.Fatalf("get %s in third life: %v", id, err)
		}
		if g.State() != service.StateDone || g.Result() == nil {
			t.Fatalf("third-life %s: state %q, result %v", id, g.State(), g.Result() != nil)
		}
	}
	calls3.Range(func(k, v any) bool {
		t.Fatalf("third life re-simulated seed %v", k)
		return false
	})
	if m := svc3.Snapshot(); m.ReplayedJobs != 0 {
		t.Fatalf("third-life replayed_jobs = %d, want 0", m.ReplayedJobs)
	}
	if err := svc3.Drain(context.Background()); err != nil {
		t.Fatalf("drain third life: %v", err)
	}
	fs3.Close()
}
