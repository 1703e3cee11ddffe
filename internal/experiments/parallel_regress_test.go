package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"ecripse/internal/core"
	"ecripse/internal/montecarlo"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// parallelCase is one engine configuration whose result must be
// parallelism-invariant. Modest budgets keep the three-way run affordable
// in CI while still crossing many stage-2 batch barriers.
type parallelCase struct {
	name string
	rtn  bool
	opts core.Options
}

func parallelCases() []parallelCase {
	return []parallelCase{
		{
			name: "rdf-vdd0.5",
			opts: core.Options{NIS: 4000, Directions: 128, WarmupTrain: 200},
		},
		{
			name: "rtn-vdd0.5",
			rtn:  true,
			opts: core.Options{NIS: 1500, M: 5, Directions: 128, WarmupTrain: 200},
		},
		{
			name: "rdf-noclassifier",
			opts: core.Options{NIS: 2000, Directions: 64, NoClassifier: true},
		},
	}
}

// runParallelCase executes one engine flow at the given parallelism from a
// fresh seed-1 state.
func runParallelCase(t *testing.T, c parallelCase, parallelism int) core.Result {
	t.Helper()
	cell := sram.NewCell(0.5)
	rng := rand.New(rand.NewSource(1))
	opts := c.opts
	opts.Parallelism = parallelism
	eng := core.NewEngine(cell, &montecarlo.Counter{}, opts)
	var sampler *rtn.Sampler
	if c.rtn {
		sampler = rtn.NewSampler(cell, rtn.TableIConfig(cell), 0.5)
	}
	res, err := eng.Run(rng, sampler)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRegressParallelismDeterminism is the determinism half of the
// regression suite: the same engine spec run at parallelism 1, 2 and 8 must
// produce bit-identical estimates, convergence series and cost splits. This
// is the invariant the service result cache and the store's crash-recovery
// replay are built on; any scheduling-dependent randomness or merge-order
// slip shows up here as an exact-inequality failure, not a statistical
// drift. Unlike TestRegressEstimators it needs no golden file — parallelism
// 1 is the baseline — and it is cheap enough to run in -short mode.
func TestRegressParallelismDeterminism(t *testing.T) {
	for _, c := range parallelCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := runParallelCase(t, c, 1)
			if want.Estimate.P <= 0 {
				t.Fatalf("baseline estimate collapsed: %v", want.Estimate)
			}
			if len(want.Series) == 0 {
				t.Fatal("baseline recorded no convergence series")
			}
			for _, parallelism := range []int{2, 8} {
				got := runParallelCase(t, c, parallelism)
				if got.Estimate != want.Estimate {
					t.Errorf("parallelism=%d estimate differs:\n got  %+v\n want %+v",
						parallelism, got.Estimate, want.Estimate)
				}
				if !reflect.DeepEqual(got.Series, want.Series) {
					t.Errorf("parallelism=%d convergence series differs (%d vs %d points)",
						parallelism, len(got.Series), len(want.Series))
				}
				if got.InitSims != want.InitSims || got.WarmupSims != want.WarmupSims ||
					got.Stage1Sims != want.Stage1Sims || got.Stage2Sims != want.Stage2Sims ||
					got.Classified != want.Classified {
					t.Errorf("parallelism=%d cost split differs:\n got  init=%d warmup=%d s1=%d s2=%d cls=%d\n want init=%d warmup=%d s1=%d s2=%d cls=%d",
						parallelism,
						got.InitSims, got.WarmupSims, got.Stage1Sims, got.Stage2Sims, got.Classified,
						want.InitSims, want.WarmupSims, want.Stage1Sims, want.Stage2Sims, want.Classified)
				}
			}
		})
	}
}
