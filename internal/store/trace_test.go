package store

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"ecripse/internal/obsv"
	"ecripse/internal/service"
)

// TestTracePersistenceAndRecovery journals a completed job's span timeline
// and requires a recovered service to serve the exact persisted spans — the
// trace of a job that ran in a previous process life survives the crash.
func TestTracePersistenceAndRecovery(t *testing.T) {
	dir := testDir(t)
	fs1, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	var calls sync.Map
	svc1 := service.New(service.Config{
		Workers: 1, QueueCapacity: 4,
		Store:   fs1,
		RunFunc: runFunc(100, nil, &calls),
	})
	spec := service.JobSpec{Estimator: service.EstNaive, Seed: 1, N: 500}
	j1, err := svc1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j1, 5*time.Second)
	// The live trace must already carry the service phases.
	deadline := time.Now().Add(5 * time.Second)
	var live json.RawMessage
	for live = j1.TracePayload(); ; live = j1.TracePayload() {
		if live != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if live == nil {
		t.Fatal("finished job has no trace payload")
	}
	var tp struct {
		TraceID string          `json:"trace_id"`
		Spans   []obsv.SpanView `json:"spans"`
	}
	if err := json.Unmarshal(live, &tp); err != nil {
		t.Fatalf("decode live trace: %v", err)
	}
	if len(tp.TraceID) != 32 {
		t.Fatalf("trace payload carries trace ID %q, want 32 hex chars", tp.TraceID)
	}
	names := map[string]bool{}
	for _, sp := range tp.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue.wait", "run", "persist"} {
		if !names[want] {
			t.Fatalf("live trace lacks span %q: %v", want, names)
		}
	}

	// "Crash": close the store without draining; give the persist append a
	// moment to land first (the terminal transition races the test).
	waitAppend(t, fs1, j1.ID)
	_ = fs1.Close()

	fs2, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs2.Close()
	svc2 := service.New(service.Config{
		Workers: 1, QueueCapacity: 4,
		Store:   fs2,
		RunFunc: runFunc(100, nil, &calls),
	})
	j2, err := svc2.Get(j1.ID)
	if err != nil {
		t.Fatalf("recovered job missing: %v", err)
	}
	recovered := j2.TracePayload()
	if recovered == nil {
		t.Fatal("recovered job has no trace payload")
	}
	if !bytes.Equal(recovered, live) {
		t.Fatalf("recovered trace differs from persisted:\n%s\n%s", recovered, live)
	}
}

// waitAppend polls until the store's mirror holds a trace for the job (the
// service appends it asynchronously on the terminal transition).
func waitAppend(t *testing.T, fs *FileStore, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fs.mu.Lock()
		js, ok := fs.mem.index[id]
		has := ok && js.Trace != nil
		fs.mu.Unlock()
		if has {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace for %s never reached the store", id)
}
