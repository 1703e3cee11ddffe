package main

import (
	"context"
	"testing"
	"time"

	"ecripse/internal/service"
)

// TestRunSweepExpiredContext requires a sweep whose -timeout has already
// fired to stop and exit 1 instead of running its grid to completion.
func TestRunSweepExpiredContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	spec := service.SweepSpec{
		Base:      service.JobSpec{RTN: true, Vdd: 0.5, N: 4000, M: 5},
		Alpha:     &service.Axis{From: 0, To: 1, Steps: 3},
		WarmStart: true,
	}
	if code := runSweep(ctx, spec); code != 1 {
		t.Fatalf("runSweep with an expired context = %d, want 1", code)
	}
}
