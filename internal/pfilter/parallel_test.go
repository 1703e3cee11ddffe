package pfilter

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/randx"
)

// shellFails is a deterministic indicator: failure outside radius 3.
func shellFails(x linalg.Vector) bool { return x.Norm() > 3 }

// marginBatch answers a batch with margin(p), counting the calls.
func marginBatch(margin func(linalg.Vector) float64, calls *int) func(pts []linalg.Vector, out []float64) {
	return func(pts []linalg.Vector, out []float64) {
		*calls += len(pts)
		for i, p := range pts {
			out[i] = margin(p)
		}
	}
}

// shellMargin is the signed margin of the r=3 shell, 3 − r.
func shellMargin(x linalg.Vector) float64 { return 3 - x.Norm() }

// TestBoundaryInitParWorkerInvariance: the boundary set, the number of
// margin evaluations and the lockstep step count must be identical for any
// worker count, and the points must actually sit on the r=3 shell.
func TestBoundaryInitParWorkerInvariance(t *testing.T) {
	wantCalls := 0
	want, wantSteps := BoundaryInitPar(9, 6, 64, 8, 0.05, marginBatch(shellMargin, &wantCalls), 1)
	if len(want) == 0 {
		t.Fatal("no boundary points found")
	}
	for _, p := range want {
		if r := p.Norm(); r < 3 || r > 3.05 {
			t.Fatalf("boundary point at radius %v, want in [3, 3.05]", r)
		}
	}
	for _, workers := range []int{2, 4, 16} {
		calls := 0
		got, steps := BoundaryInitPar(9, 6, 64, 8, 0.05, marginBatch(shellMargin, &calls), workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("boundary set differs at workers=%d (%d vs %d points)", workers, len(got), len(want))
		}
		if calls != wantCalls || steps != wantSteps {
			t.Fatalf("workers=%d: %d margin calls in %d steps, want %d in %d", workers, calls, steps, wantCalls, wantSteps)
		}
	}
}

// halfShell restricts a radial margin f(r) to the half-space x0 >= 0 and
// passes everywhere else (margin 1), so only about half the directions
// find a boundary.
func halfShell(f func(r float64) float64) func(linalg.Vector) float64 {
	return func(x linalg.Vector) float64 {
		if x[0] < 0 {
			return 1
		}
		return f(x.Norm())
	}
}

// shellMargins are four margins of the same r=3 shell, from linear to
// nearly flat beyond the root: the search must place every point in
// [3, 3+rtol] on each.
var shellMargins = []struct {
	name string
	f    func(r float64) float64
}{
	{"3-r", func(r float64) float64 { return 3 - r }},
	{"tanh(50(3-r))", func(r float64) float64 { return math.Tanh(50 * (3 - r)) }},
	{"9-r^2", func(r float64) float64 { return 9 - r*r }},
	{"exp(-r)-exp(-3)", func(r float64) float64 { return math.Exp(-r) - math.Exp(-3) }},
}

// TestBoundaryInitParContract: on every shell margin, each returned point
// fails and lies in [3, 3+rtol], and the found directions are exactly the
// ring points that fail at rmax, in direction order. On the linear margin
// each found direction costs at most 2 simulations beyond the ring and the
// origin; on none does a direction cost more than 16 (twice bisection's 8).
func TestBoundaryInitParContract(t *testing.T) {
	const dirs, rmax, rtol = 96, 8.0, 0.05
	for _, tc := range shellMargins {
		t.Run(tc.name, func(t *testing.T) {
			margin := halfShell(tc.f)
			var ring []linalg.Vector // ring points that fail, in direction order
			calls := 0
			count := marginBatch(margin, &calls)
			got, steps := BoundaryInitPar(5, 6, dirs, rmax, rtol, func(pts []linalg.Vector, out []float64) {
				if calls == 0 {
					for _, p := range pts[:dirs] {
						if margin(p) < 0 {
							ring = append(ring, p)
						}
					}
				}
				count(pts, out)
			}, 1)
			if len(got) != len(ring) || len(got) == 0 || len(got) == dirs {
				t.Fatalf("found %d directions, %d fail at rmax (of %d)", len(got), len(ring), dirs)
			}
			for i, p := range got {
				if margin(p) >= 0 {
					t.Fatalf("point %d at radius %v passes", i, p.Norm())
				}
				if r := p.Norm(); r < 3 || r > 3+rtol {
					t.Fatalf("point %d at radius %v, want in [3, %v]", i, r, 3+rtol)
				}
				if d := p.Scale(1 / p.Norm()).Sub(ring[i].Scale(1 / rmax)).Norm(); d > 1e-12 {
					t.Fatalf("point %d is not on ring direction %d (off by %g)", i, i, d)
				}
			}
			perDir := float64(calls-dirs-1) / float64(len(got))
			t.Logf("%d found, %d steps, %.2f simulations per found direction", len(got), steps, perDir)
			if tc.name == "3-r" && perDir > 2 {
				t.Fatalf("linear margin: %.2f simulations per found direction, want at most 2", perDir)
			}
			if steps > 16 {
				t.Fatalf("%d lockstep steps: some direction took more than 16 simulations", steps)
			}
		})
	}
}

// TestBoundaryInitParEdges: a NaN margin and a margin of exactly 0 (a pass)
// inside the bracket neither loop nor leave it, and when the origin itself
// fails every point lands within rtol of the origin, as bisection does.
func TestBoundaryInitParEdges(t *testing.T) {
	const dirs, rmax, rtol = 32, 8.0, 0.05
	cases := []struct {
		name   string
		margin func(r float64) float64
		lo, hi float64 // where the returned radii must lie
	}{
		{"NaN inside", func(r float64) float64 { // the first estimate, 1.125, is NaN
			if r > 1 && r < 2.5 {
				return math.NaN()
			}
			return 9 - r*r
		}, 3, 3 + rtol},
		{"zero band", func(r float64) float64 {
			if r < 2 {
				return 4 - 2*r
			}
			return min(0, 3-r)
		}, 3, 3 + rtol},
		{"zero plateau", func(r float64) float64 { return min(0, 3-r) }, 3, 3 + rtol},
		{"origin fails", func(r float64) float64 { return -1 - r }, 0, rtol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			got, steps := BoundaryInitPar(3, 6, dirs, rmax, rtol, marginBatch(func(x linalg.Vector) float64 { return tc.margin(x.Norm()) }, &calls), 2)
			if len(got) != dirs {
				t.Fatalf("found %d of %d directions", len(got), dirs)
			}
			if steps > 16 {
				t.Fatalf("%d lockstep steps, want at most 16", steps)
			}
			for i, p := range got {
				if r := p.Norm(); r < tc.lo || r > tc.hi || !(tc.margin(r) < 0) {
					t.Fatalf("point %d at radius %v (margin %v), want a failing point in [%v, %v]", i, r, tc.margin(r), tc.lo, tc.hi)
				}
			}
		})
	}
}

// newTestEnsemble builds a small deterministic ensemble around the r=3 shell.
func newTestEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	calls := 0
	initial, _ := BoundaryInitPar(2, 6, 32, 8, 0.05, marginBatch(shellMargin, &calls), 1)
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
