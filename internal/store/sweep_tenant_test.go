package store

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"ecripse/internal/service"
)

// TestRecoveryResumedSweepKeepsTenant journals a sweep that is still running
// under a tenant, boots a service on that journal, and requires the resumed
// controller to attribute every point job to the sweep's tenant — and the
// tenant's simulation usage to equal the sum over those point jobs.
func TestRecoveryResumedSweepKeepsTenant(t *testing.T) {
	fs, err := Open(testDir(t), Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer fs.Close()

	spec := service.SweepSpec{
		Base:  service.JobSpec{Estimator: service.EstNaive, Seed: 3, N: 200},
		TempK: &service.Axis{Values: []float64{300, 310, 320, 330}},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := fs.AppendSweep("sw000001", raw, spec.Key(), "acme", now); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendSweepState("sw000001", service.StateRunning, "", nil, now); err != nil {
		t.Fatal(err)
	}

	tenants, err := service.NewTenants([]service.TenantConfig{{Key: "k", Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{
		Workers: 2, QueueCapacity: 16,
		Store:   fs,
		Tenants: tenants,
		RunFunc: sweepPointRunFunc(0, nil, nil),
	})
	defer svc.Drain(context.Background())
	sw, err := svc.GetSweep("sw000001")
	if err != nil {
		t.Fatalf("resumed sweep not tracked: %v", err)
	}
	select {
	case <-sw.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("resumed sweep not terminal within 10s (state %q)", sw.State())
	}
	if st := sw.State(); st != service.StateDone {
		t.Fatalf("resumed sweep ended %q", st)
	}

	var sims int64
	points := sw.Snapshot(true).Points
	if len(points) != 4 {
		t.Fatalf("resumed sweep has %d points, want 4", len(points))
	}
	for _, p := range points {
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
	deadline := time.Now().Add(5 * time.Second)
	for tenants.Views()["acme"].Sims != sims {
		if time.Now().After(deadline) {
			t.Fatalf("tenant sims usage %d, want %d (sum of point jobs)", tenants.Views()["acme"].Sims, sims)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
