package service

import (
	"context"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
)

// TestSpecParallelismExcludedFromKey: parallelism is an execution knob, not
// part of the work — specs differing only in it must share a content
// address, so a parallel submission hits the cache entry a serial run
// produced (and vice versa).
func TestSpecParallelismExcludedFromKey(t *testing.T) {
	a := JobSpec{Parallelism: 0}
	b := JobSpec{Parallelism: 8}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("parallelism leaked into the content address:\n%s\n%s", a.Key(), b.Key())
	}

	for _, bad := range []JobSpec{
		{Parallelism: -1},
		{Estimator: EstNaive, Parallelism: 4},
	} {
		bad := bad
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize accepted invalid spec %+v", bad)
		}
	}
}

// TestSubmitCapsParallelism: the service clamps a job's requested intra-job
// workers to MaxJobParallelism so the pool and intra-job levels compose.
func TestSubmitCapsParallelism(t *testing.T) {
	var seen []int
	svc := New(Config{
		Workers: 1, QueueCapacity: 8, CacheCapacity: -1, MaxJobParallelism: 2,
		RunFunc: func(ctx context.Context, s JobSpec, c *montecarlo.Counter) (*RunResult, error) {
			seen = append(seen, s.Parallelism)
			return &RunResult{}, nil
		},
	})
	defer svc.Drain(context.Background())

	for _, req := range []int{0, 1, 2, 64} {
		j, err := svc.Submit(context.Background(), JobSpec{Parallelism: req})
		if err != nil {
			t.Fatalf("submit parallelism=%d: %v", req, err)
		}
		waitDone(t, j, 5*time.Second)
	}
	want := []int{0, 1, 2, 2}
	if len(seen) != len(want) {
		t.Fatalf("ran %d jobs, want %d", len(seen), len(want))
	}
	for i, w := range want {
		if seen[i] != w {
			t.Errorf("job %d ran with parallelism %d, want %d", i, seen[i], w)
		}
	}
}

// TestMaxJobParallelismDefault: the zero config derives the cap from
// GOMAXPROCS/Workers, never below 1; a negative config disables intra-job
// parallelism.
func TestMaxJobParallelismDefault(t *testing.T) {
	c := Config{Workers: 10000}
	c.fill()
	if c.MaxJobParallelism != 1 {
		t.Fatalf("cap = %d with saturating workers, want 1", c.MaxJobParallelism)
	}
	c = Config{Workers: 1, MaxJobParallelism: -1}
	c.fill()
	if c.MaxJobParallelism != 1 {
		t.Fatalf("negative cap resolved to %d, want 1", c.MaxJobParallelism)
	}
}
