package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
)

// waitState polls until the job reaches the wanted state or the deadline
// passes.
func waitState(t *testing.T, j *Job, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s: state %q, want %q within %s", j.ID, j.State(), want, within)
}

// waitDone blocks on the job's terminal channel with a deadline.
func waitDone(t *testing.T, j *Job, within time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(within):
		t.Fatalf("job %s: not terminal within %s (state %q)", j.ID, within, j.State())
	}
}

func TestSpecNormalizeDefaultsAndKey(t *testing.T) {
	a := JobSpec{}
	if err := a.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if a.Estimator != EstECRIPSE || a.Mode != "read" || a.Seed != 1 || a.N != 20000 || a.Vdd == 0 {
		t.Fatalf("defaults not applied: %+v", a)
	}

	// A spec with the defaults spelled out must hash identically.
	b := JobSpec{Estimator: "ecripse", Mode: "read", Seed: 1, N: 20000, Vdd: a.Vdd}
	if err := b.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent specs hash differently:\n%s\n%s", a.Key(), b.Key())
	}

	// A different seed must change the content address.
	c := a
	c.Seed = 2
	if a.Key() == c.Key() {
		t.Fatal("seed not part of the content address")
	}

	for _, bad := range []JobSpec{
		{Mode: "explode"},
		{Estimator: "quantum"},
		{Estimator: "subset", RTN: true},
		{RTN: true, Alpha: 1.5},
		{Estimator: "naive", Sweep: []float64{0.5}},
		{N: -1},
		{Estimator: "naive", NoClassifier: true},
	} {
		bad := bad
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize accepted invalid spec %+v", bad)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
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

	j1, err := svc.Submit(context.Background(), JobSpec{Seed: 1})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitState(t, j1, StateRunning, 2*time.Second) // worker occupied, queue empty

	if _, err := svc.Submit(context.Background(), JobSpec{Seed: 2}); err != nil {
		t.Fatalf("submit 2 (fills the queue): %v", err)
	}
	if _, err := svc.Submit(context.Background(), JobSpec{Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit 3: err = %v, want ErrQueueFull", err)
	}
	if d := svc.Snapshot().QueueDepth; d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}

	close(release)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := svc.Snapshot().Jobs[StateDone]; got != 2 {
		t.Fatalf("done jobs = %d, want 2", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	release := make(chan struct{})
	var ran sync.Map
	svc.runFn = func(ctx context.Context, spec JobSpec, _ *montecarlo.Counter) (*RunResult, error) {
		ran.Store(spec.Seed, true)
		select {
		case <-release:
			return &RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	j1, _ := svc.Submit(context.Background(), JobSpec{Seed: 1})
	waitState(t, j1, StateRunning, 2*time.Second)
	j2, err := svc.Submit(context.Background(), JobSpec{Seed: 2})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if !j2.Cancel() {
		t.Fatal("cancel of a queued job had no effect")
	}
	if got := j2.State(); got != StateCanceled {
		t.Fatalf("queued job state after cancel = %q, want canceled", got)
	}
	close(release)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, ok := ran.Load(int64(2)); ok {
		t.Fatal("cancelled queued job was executed anyway")
	}
}

func TestCancelMidRunStopsCounter(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	svc.runFn = func(ctx context.Context, _ JobSpec, c *montecarlo.Counter) (*RunResult, error) {
		for {
			if ctx.Err() != nil {
				return &RunResult{}, ctx.Err() // partial result
			}
			c.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}

	j, err := svc.Submit(context.Background(), JobSpec{Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, j, StateRunning, 2*time.Second)
	for j.Sims() == 0 {
		time.Sleep(time.Millisecond)
	}

	if !j.Cancel() {
		t.Fatal("cancel of a running job had no effect")
	}
	waitDone(t, j, 2*time.Second)
	if got := j.State(); got != StateCanceled {
		t.Fatalf("state = %q, want canceled", got)
	}
	frozen := j.Sims()
	if frozen == 0 {
		t.Fatal("no simulations recorded before cancellation")
	}
	time.Sleep(50 * time.Millisecond)
	if again := j.Sims(); again != frozen {
		t.Fatalf("simulation counter advanced after cancel: %d -> %d", frozen, again)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestCacheHitByteIdentical exercises the real runner: the duplicate
// submission must be answered from the cache, byte-for-byte, with zero
// additional transistor-level simulations.
func TestCacheHitByteIdentical(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCapacity: 8})
	defer svc.Drain(context.Background())

	spec := JobSpec{Estimator: EstNaive, N: 1500, Seed: 11}
	j1, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j1, 2*time.Minute)
	if j1.State() != StateDone {
		t.Fatalf("job 1 state = %q, want done", j1.State())
	}
	if j1.Sims() != 1500 {
		t.Fatalf("job 1 sims = %d, want 1500", j1.Sims())
	}
	simsBefore := svc.Snapshot().SimsTotal

	j2, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitDone(t, j2, time.Second) // answered inline, no worker involved
	if j2.State() != StateDone {
		t.Fatalf("job 2 state = %q, want done", j2.State())
	}
	if v := j2.Snapshot(true); !v.Cached {
		t.Fatal("duplicate submission not flagged cached")
	}
	if !bytes.Equal(j1.Result(), j2.Result()) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", j1.Result(), j2.Result())
	}
	if j2.Sims() != 0 {
		t.Fatalf("cache hit consumed %d simulations, want 0", j2.Sims())
	}
	m := svc.Snapshot()
	if m.SimsTotal != simsBefore {
		t.Fatalf("cumulative sims advanced on a cache hit: %d -> %d", simsBefore, m.SimsTotal)
	}
	if m.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", m.CacheHits)
	}
}

func TestGracefulDrainFinishesRunningJobs(t *testing.T) {
	svc := New(Config{Workers: 2, QueueCapacity: 8})
	started := make(chan struct{}, 16)
	svc.runFn = func(ctx context.Context, _ JobSpec, c *montecarlo.Counter) (*RunResult, error) {
		started <- struct{}{}
		// Deliberately ignore ctx for a while: a graceful drain must let
		// running jobs complete rather than cancelling them.
		time.Sleep(30 * time.Millisecond)
		c.Add(7)
		return &RunResult{}, nil
	}

	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := svc.Submit(context.Background(), JobSpec{Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	<-started // at least one job is mid-run when the drain begins

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		if j.State() != StateDone {
			t.Fatalf("job %s state after drain = %q, want done", j.ID, j.State())
		}
	}
	if _, err := svc.Submit(context.Background(), JobSpec{Seed: 99}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	svc.runFn = func(ctx context.Context, _ JobSpec, _ *montecarlo.Counter) (*RunResult, error) {
		<-ctx.Done() // only a hard cancel ends this job
		return nil, ctx.Err()
	}
	j, err := svc.Submit(context.Background(), JobSpec{Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, j, StateRunning, 2*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Fatal("drain returned nil despite a stuck job")
	}
	if got := j.State(); got != StateCanceled {
		t.Fatalf("straggler state = %q, want canceled", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 4})
	svc.runFn = func(ctx context.Context, spec JobSpec, _ *montecarlo.Counter) (*RunResult, error) {
		if spec.Seed == 13 {
			panic("unlucky spec")
		}
		return &RunResult{}, nil
	}

	bad, err := svc.Submit(context.Background(), JobSpec{Seed: 13})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, bad, 2*time.Second)
	if bad.State() != StateFailed {
		t.Fatalf("panicking job state = %q, want failed", bad.State())
	}
	if v := bad.Snapshot(false); v.Error == "" {
		t.Fatal("panicking job lost its error message")
	}

	// The worker must have survived the panic.
	ok, err := svc.Submit(context.Background(), JobSpec{Seed: 14})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	waitDone(t, ok, 2*time.Second)
	if ok.State() != StateDone {
		t.Fatalf("job after panic state = %q, want done", ok.State())
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestConcurrentSubmitCancel hammers a ≥4-worker pool with concurrent
// submits and cancels; run under -race this is the acceptance check for the
// service's concurrency.
func TestConcurrentSubmitCancel(t *testing.T) {
	svc := New(Config{Workers: 4, QueueCapacity: 256})
	svc.runFn = func(ctx context.Context, _ JobSpec, c *montecarlo.Counter) (*RunResult, error) {
		for i := 0; i < 50; i++ {
			if ctx.Err() != nil {
				return &RunResult{}, ctx.Err()
			}
			c.Add(1)
			time.Sleep(50 * time.Microsecond)
		}
		return &RunResult{}, nil
	}

	const submitters, perSubmitter = 8, 12
	var wg sync.WaitGroup
	jobCh := make(chan *Job, submitters*perSubmitter)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := svc.Submit(context.Background(), JobSpec{Seed: int64(g*1000 + i + 1)})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobCh <- j
				if i%3 == 0 {
					go j.Cancel() // concurrent cancel from another goroutine
				}
				if i%4 == 0 {
					svc.Snapshot() // concurrent metrics reads
				}
			}
		}(g)
	}
	wg.Wait()
	close(jobCh)

	for j := range jobCh {
		waitDone(t, j, 10*time.Second)
		switch j.State() {
		case StateDone, StateCanceled:
		default:
			t.Fatalf("job %s ended as %q", j.ID, j.State())
		}
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	m := svc.Snapshot()
	if got := m.Jobs[StateDone] + m.Jobs[StateCanceled]; got != submitters*perSubmitter {
		t.Fatalf("terminal jobs = %d, want %d (%v)", got, submitters*perSubmitter, m.Jobs)
	}
}

func TestJobIDsAreSequential(t *testing.T) {
	svc := New(Config{Workers: 1, QueueCapacity: 8})
	svc.runFn = func(context.Context, JobSpec, *montecarlo.Counter) (*RunResult, error) {
		return &RunResult{}, nil
	}
	defer svc.Drain(context.Background())
	var prev string
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(context.Background(), JobSpec{Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if j.ID <= prev {
			t.Fatalf("ids not increasing: %q after %q", j.ID, prev)
		}
		prev = j.ID
	}
	if want := fmt.Sprintf("j%06d", 3); prev != want {
		t.Fatalf("last id = %q, want %q", prev, want)
	}
}
