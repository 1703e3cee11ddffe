package store

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"testing"
	"time"

	"ecripse/internal/montecarlo"
	"ecripse/internal/service"
)

// sweepCrashSpec is the grid both lives of the sweep crash test submit: a
// 40-point warm alpha sweep, long enough that a SIGKILL lands mid-chain.
func sweepCrashSpec() service.SweepSpec {
	return service.SweepSpec{
		Base:      service.JobSpec{RTN: true, Seed: 11, N: 500, M: 2},
		Alpha:     &service.Axis{From: 0, To: 1, Steps: 40},
		WarmStart: true,
	}
}

// sweepPointRunFunc builds a deterministic point runner whose payload is a
// pure function of the point spec — the property the real estimator has and
// the one that makes cache-served resume indistinguishable from recompute.
// Each completed point is announced on announce (the victim process reports
// progress to its parent this way), delay stretches the run so the kill has
// a grid to land in, and calls tallies invocations per alpha.
func sweepPointRunFunc(delay time.Duration, announce io.Writer, calls *sync.Map) func(context.Context, service.JobSpec, *montecarlo.Counter) (*service.RunResult, error) {
	return func(ctx context.Context, spec service.JobSpec, c *montecarlo.Counter) (*service.RunResult, error) {
		alpha := 0.0
		if len(spec.Sweep) == 1 {
			alpha = spec.Sweep[0]
		}
		if calls != nil {
			n, _ := calls.LoadOrStore(alpha, new(int64))
			*n.(*int64)++
		}
		if delay > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		c.Add(int64(spec.N))
		res := &service.RunResult{
			Estimate: service.Estimate{P: 1e-7 * (1 + alpha), CI95: 1e-9, N: spec.N, Sims: int64(spec.N)},
			Cost:     service.CostSplit{Total: int64(spec.N), Init: 40, Warmup: 60},
		}
		if announce != nil {
			fmt.Fprintf(announce, "POINT %g\n", alpha)
		}
		return res, nil
	}
}

// TestSweepCrashHelper is not a test: it is the victim process of
// TestSweepRecoveryAfterSIGKILL. Re-executed with SWEEP_CRASH_DIR set, it
// journals a warm sweep point by point until the parent kills it mid-grid.
func TestSweepCrashHelper(t *testing.T) {
	dir := os.Getenv("SWEEP_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process for TestSweepRecoveryAfterSIGKILL")
	}
	fs, err := Open(dir, Options{NoSync: true, Logf: t.Logf})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: open: %v\n", err)
		os.Exit(1)
	}
	svc := service.New(service.Config{
		Workers: 1, QueueCapacity: 64,
		Store:   fs,
		RunFunc: sweepPointRunFunc(20*time.Millisecond, os.Stdout, nil),
	})
	sw, err := svc.SubmitSweep(context.Background(), sweepCrashSpec())
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: submit sweep: %v\n", err)
		os.Exit(1)
	}
	<-sw.Done() // the parent kills us long before the grid finishes
}

// TestSweepRecoveryAfterSIGKILL kills a real process mid-sweep and requires
// the next boot to finish the grid from the journal: the interrupted sweep
// restarts automatically, every point that completed before the kill is
// answered from the restored result cache without re-simulation, and the
// final aggregate is identical to an uninterrupted run of the same spec.
func TestSweepRecoveryAfterSIGKILL(t *testing.T) {
	dir := testDir(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "SWEEP_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}

	// Kill without warning once a handful of points have committed — far
	// enough in that there is history to recover, far from the end so there
	// is a remainder to resume.
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // parent stopped listening; keep draining the pipe
			}
		}
		close(lines)
	}()
	seen := 0
	deadline := time.After(30 * time.Second)
	for seen < 6 {
		select {
		case ln, ok := <-lines:
			if !ok {
				t.Fatal("helper exited before completing 6 points")
			}
			if _, err := fmt.Sscanf(ln, "POINT %f", new(float64)); err == nil {
				seen++
			}
		case <-deadline:
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper committed only %d points in 30s", seen)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL helper: %v", err)
	}
	cmd.Wait() // exit status is the kill signal; only reaping matters

	// Reopen and take stock of what the journal preserved.
	fs, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	rec := fs.Recover()
	if len(rec.Sweeps) != 1 {
		t.Fatalf("recovered %d sweeps, want 1", len(rec.Sweeps))
	}
	if st := rec.Sweeps[0].State; st.Terminal() {
		t.Fatalf("interrupted sweep recovered terminal (%q)", st)
	}
	doneAlpha := map[float64]bool{}
	for _, rj := range rec.Jobs {
		if rj.State != service.StateDone {
			continue
		}
		var js struct {
			Sweep []float64 `json:"sweep"`
		}
		if err := json.Unmarshal(rj.Spec, &js); err == nil && len(js.Sweep) == 1 {
			doneAlpha[js.Sweep[0]] = true
		}
	}
	if len(doneAlpha) == 0 || len(doneAlpha) >= 40 {
		t.Fatalf("kill did not land mid-grid: %d of 40 points done", len(doneAlpha))
	}
	t.Logf("killed with %d of 40 points done, %d results journaled", len(doneAlpha), len(rec.Results))

	// Second life: New restarts the interrupted sweep's controller itself;
	// the runner tallies every alpha it is asked to simulate again.
	var calls sync.Map
	svc := service.New(service.Config{
		Workers: 1, QueueCapacity: 64,
		Store:   fs,
		RunFunc: sweepPointRunFunc(0, nil, &calls),
	})
	sw, err := svc.GetSweep(rec.Sweeps[0].ID)
	if err != nil {
		t.Fatalf("recovered sweep %s not tracked: %v", rec.Sweeps[0].ID, err)
	}
	select {
	case <-sw.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("resumed sweep not terminal within 30s (state %q, %d/40 points)", sw.State(), sw.PointsDone())
	}
	if sw.State() != service.StateDone {
		t.Fatalf("resumed sweep ended %q: %+v", sw.State(), sw.Snapshot(false).Error)
	}
	res := sw.Result()
	if res == nil || len(res.Points) != 40 {
		t.Fatalf("resumed aggregate incomplete: %+v", res)
	}

	// Every pre-kill point was answered from the restored cache, not re-run.
	for alpha := range doneAlpha {
		if n, ok := calls.Load(alpha); ok {
			t.Errorf("alpha=%g was re-simulated %d times despite its journaled result", alpha, *n.(*int64))
		}
	}
	if res.CachedPoints < len(doneAlpha) {
		t.Errorf("cached_points = %d, want >= %d recovered results served from cache", res.CachedPoints, len(doneAlpha))
	}

	// The reassembled sweep trace survives the crash: the resumed controller
	// minted a fresh trace for its own spans, but every pre-kill point's
	// engine timeline — restored from the original jobs' OpTrace journal
	// records — is grafted back into the tree and labeled with the job that
	// actually computed it.
	traceID, spans := svc.AssembleSweepTrace(sw)
	if len(traceID) != 32 {
		t.Fatalf("reassembled trace ID = %q, want 32 hex chars", traceID)
	}
	pointSpans, runSpans, grafted := 0, 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "point":
			pointSpans++
			if jobAttr, _ := sp.Attrs["job"].(string); jobAttr == "" {
				t.Errorf("point span lacks a job attr: %+v", sp)
			}
		case "run":
			runSpans++
			if _, ok := sp.Attrs["source_job"]; ok {
				grafted++
			}
		}
	}
	if pointSpans != 40 || runSpans != 40 {
		t.Errorf("reassembled trace has %d point / %d run spans, want 40/40", pointSpans, runSpans)
	}
	if grafted < len(doneAlpha) {
		t.Errorf("only %d engine spans grafted from recovered journal records, want >= %d pre-kill points", grafted, len(doneAlpha))
	}

	// The resumed aggregate matches an uninterrupted run of the same spec
	// point for point (IDs and cache provenance aside — those are the only
	// fields allowed to differ).
	ref := service.New(service.Config{
		Workers: 1, QueueCapacity: 64,
		RunFunc: sweepPointRunFunc(0, nil, nil),
	})
	rsw, err := ref.SubmitSweep(context.Background(), sweepCrashSpec())
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	select {
	case <-rsw.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("reference sweep not terminal within 30s")
	}
	rres := rsw.Result()
	if rres == nil || len(rres.Points) != len(res.Points) {
		t.Fatalf("reference aggregate incomplete: %+v", rres)
	}
	if res.TotalSims != rres.TotalSims || res.SimsSaved != rres.SimsSaved || res.WarmPoints != rres.WarmPoints {
		t.Errorf("aggregate drifted across the crash: total_sims %d/%d, sims_saved %d/%d, warm %d/%d",
			res.TotalSims, rres.TotalSims, res.SimsSaved, rres.SimsSaved, res.WarmPoints, rres.WarmPoints)
	}
	for i := range res.Points {
		got, want := res.Points[i], rres.Points[i]
		if got.Key != want.Key || got.Warm != want.Warm ||
			!reflect.DeepEqual(got.Alpha, want.Alpha) ||
			!reflect.DeepEqual(got.Estimate, want.Estimate) ||
			!reflect.DeepEqual(got.Cost, want.Cost) {
			t.Errorf("point %d differs from the uninterrupted run:\n resumed %+v\n reference %+v", i, got, want)
		}
	}

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fs.Close()
}
