package pfilter

import (
	"math/rand"
	"reflect"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
)

// shellFails is a deterministic indicator: failure outside radius 3.
func shellFails(x linalg.Vector) bool { return x.Norm() > 3 }

// shellBatch labels a batch of points with shellFails, counting the calls.
func shellBatch(calls *int) func(pts []linalg.Vector, out []bool) {
	return func(pts []linalg.Vector, out []bool) {
		*calls += len(pts)
		for i, p := range pts {
			out[i] = shellFails(p)
		}
	}
}

// TestBoundaryInitParWorkerInvariance: the boundary set and the number of
// indicator evaluations must be identical for any worker count, and the
// points must actually sit on the r=3 shell.
func TestBoundaryInitParWorkerInvariance(t *testing.T) {
	wantCalls := 0
	want := BoundaryInitPar(9, 6, 64, 8, 0.05, shellBatch(&wantCalls), 1)
	if len(want) == 0 {
		t.Fatal("no boundary points found")
	}
	for _, p := range want {
		if r := p.Norm(); r < 2.5 || r > 3.6 {
			t.Fatalf("boundary point at radius %v, want ≈3", r)
		}
	}
	for _, workers := range []int{2, 4, 16} {
		calls := 0
		got := BoundaryInitPar(9, 6, 64, 8, 0.05, shellBatch(&calls), workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("boundary set differs at workers=%d (%d vs %d points)", workers, len(got), len(want))
		}
		if calls != wantCalls {
			t.Fatalf("workers=%d: %d indicator calls, want %d", workers, calls, wantCalls)
		}
	}
}

// newTestEnsemble builds a small deterministic ensemble around the r=3 shell.
func newTestEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	calls := 0
	initial := BoundaryInitPar(2, 6, 32, 8, 0.05, shellBatch(&calls), 1)
	if len(initial) == 0 {
		t.Fatal("no initial particles")
	}
	return New(rng, Options{Particles: 20, Filters: 2, KernelStd: 0.3}, initial)
}

// shellStaged weighs a candidate u·P(x) on the r>3 failure region, u a
// uniform drawn from the candidate's own substream at Prepare. It records
// the order of the round's phases for the barrier checks.
type shellStaged struct {
	us       []float64
	prepared []bool
	valued   []bool
	resolves int
}

func newShellStaged(n int) *shellStaged {
	return &shellStaged{us: make([]float64, n), prepared: make([]bool, n), valued: make([]bool, n)}
}

func (s *shellStaged) Prepare(w int, rng *rand.Rand, idx int, x linalg.Vector) {
	s.us[idx] = rng.Float64()
	s.prepared[idx] = true
}

func (s *shellStaged) Resolve(lo, hi int) {
	for idx := lo; idx < hi; idx++ {
		if !s.prepared[idx] {
			panic("resolve before prepare")
		}
	}
	s.resolves++
}

func (s *shellStaged) Value(idx int, x linalg.Vector) float64 {
	s.valued[idx] = true
	if !shellFails(x) {
		return 0
	}
	return s.us[idx] * randx.StdNormalPDF(x)
}

// TestStepParWorkerInvariance: StepPar rounds — particles, records and the
// candidate pool — must be bit-identical across worker counts.
func TestStepParWorkerInvariance(t *testing.T) {
	type snapshot struct {
		particles []linalg.Vector
		poolX     []linalg.Vector
		poolW     []float64
		records   []StepRecord
	}
	run := func(workers int) snapshot {
		e := newTestEnsemble(t)
		var recs []StepRecord
		for round := 0; round < 3; round++ {
			recs = e.StepPar(int64(100+round), newShellStaged(e.NumFilters()*20), nil, workers)
		}
		return snapshot{e.Particles(), e.poolX, e.poolW, recs}
	}
	want := run(1)
	if len(want.poolX) == 0 {
		t.Fatal("no pooled candidates after 3 rounds")
	}
	for _, workers := range []int{2, 5, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("StepPar state differs at workers=%d", workers)
		}
	}
}

// TestStepParFlushAfterMeasurement: a round settles its deferred work in
// exactly one Resolve barrier after every candidate is prepared, and flush
// runs after every candidate is weighed and before resampling mutates the
// filters.
func TestStepParFlushAfterMeasurement(t *testing.T) {
	e := newTestEnsemble(t)
	total := e.NumFilters() * 20
	sv := newShellStaged(total)
	before := e.Particles()
	called := false
	e.StepPar(7, sv, func(n int) {
		called = true
		if n != total {
			t.Fatalf("flush reported %d candidates, want %d", n, total)
		}
		if sv.resolves != 1 {
			t.Fatalf("flush after %d Resolve barriers, want exactly 1", sv.resolves)
		}
		for idx, v := range sv.valued {
			if !v {
				t.Fatalf("flush before candidate %d was weighed", idx)
			}
		}
		if !reflect.DeepEqual(e.Particles(), before) {
			t.Fatal("filters resampled before flush")
		}
	}, 4)
	if !called {
		t.Fatal("flush not called")
	}
}
