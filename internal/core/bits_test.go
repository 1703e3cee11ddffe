package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ecripse/internal/linalg"
	"ecripse/internal/rtn"
	"ecripse/internal/sram"
)

// engineBitsPath is the engine's bit-pin baseline, regenerated with
//
//	REGRESS_UPDATE=1 go test -run TestPipelinedParallelismMatrix ./internal/core/
//
// after an intentional change to the estimator's schedule.
const engineBitsPath = "../../results/golden/engine_bits.json"

// stagedCases are the engine configurations the bit pins cover: plain RDF,
// RTN, RDF at Parallelism 4, the no-classifier ablation, hold mode and
// write mode (the one indicator that still runs the scalar margin solver
// inside the batch barrier).
var stagedCases = []struct {
	name string
	opts Options
	rtn  bool
}{
	{"rdf", Options{NIS: 4000, Directions: 64, WarmupTrain: 120, PFIters: 3, RecordEvery: 300}, false},
	{"rtn", Options{NIS: 1200, M: 5, Directions: 64, WarmupTrain: 120, PFIters: 3}, true},
	{"rdf-par4", Options{NIS: 3000, Parallelism: 4, Directions: 64, WarmupTrain: 120, PFIters: 2}, false},
	{"noclassifier", Options{NIS: 800, NoClassifier: true, Directions: 48, PFIters: 2}, false},
	{"hold", Options{Mode: HoldFailure, NIS: 1500, Directions: 48, WarmupTrain: 120, PFIters: 2}, false},
	{"write", Options{Mode: WriteFailure, NIS: 1000, Directions: 48, WarmupTrain: 120, PFIters: 2}, false},
}

// stagedSampler builds the RTN sampler a case asks for.
func stagedSampler(cell *sram.Cell, cfg rtn.Config, want bool) *rtn.Sampler {
	if !want {
		return nil
	}
	return rtn.NewSampler(cell, cfg, 0.3)
}

// engineBits is the deterministic fingerprint of one engine run: the
// estimate's float bits, every cost, solver, lane and pipeline counter, and
// a SHA-256 digest of the trajectories (series, stage-1 diagnostics,
// proposal means).
type engineBits struct {
	P                uint64 `json:"p_bits"`
	CI95             uint64 `json:"ci95_bits"`
	RelErr           uint64 `json:"relerr_bits"`
	Sims             int64  `json:"sims"`
	InitSims         int64  `json:"init_sims"`
	WarmupSims       int64  `json:"warmup_sims"`
	Stage1Sims       int64  `json:"stage1_sims"`
	Stage2Sims       int64  `json:"stage2_sims"`
	Classified       int64  `json:"classified"`
	RootSolves       int64  `json:"root_solves"`
	SolverIters      int64  `json:"solver_iters"`
	LaneSlots        int64  `json:"lane_slots"`
	LaneOccupied     int64  `json:"lane_occupied"`
	PipelinedBatches int64  `json:"pipelined_batches"`
	Digest           string `json:"digest"`
}

func newEngineBits(t *testing.T, r Result) engineBits {
	t.Helper()
	// The series goes in as float bits: RelErr is +Inf while the running
	// estimate is zero, which encoding/json rejects.
	series := make([][5]uint64, len(r.Series))
	for i, pt := range r.Series {
		series[i] = [5]uint64{uint64(pt.Sims), math.Float64bits(pt.P), math.Float64bits(pt.CI95),
			math.Float64bits(pt.RelErr), math.Float64bits(pt.Var)}
	}
	raw, err := json.Marshal(struct {
		Series   [][5]uint64
		PFRounds []PFRoundDiag
		Means    []linalg.Vector
	}{series, r.PFRounds, r.Proposal.Means})
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	sum := sha256.Sum256(raw)
	return engineBits{
		P: math.Float64bits(r.Estimate.P), CI95: math.Float64bits(r.Estimate.CI95), RelErr: math.Float64bits(r.Estimate.RelErr),
		Sims: r.Estimate.Sims, InitSims: r.InitSims, WarmupSims: r.WarmupSims,
		Stage1Sims: r.Stage1Sims, Stage2Sims: r.Stage2Sims, Classified: r.Classified,
		RootSolves: r.RootSolves, SolverIters: r.SolverIters,
		LaneSlots: r.LaneSlots, LaneOccupied: r.LaneOccupied,
		PipelinedBatches: r.PipelinedBatches,
		Digest:           hex.EncodeToString(sum[:]),
	}
}

// TestPipelinedParallelismMatrix pins the engine's bits: every stagedCase,
// run at Parallelism 1, 2 and 8 (and at the case's own setting), must
// reproduce results/golden/engine_bits.json exactly. One schedule, one bit
// pattern, at any parallelism; run under -race in CI, this is the suite
// that licenses the pipeline's concurrency. REGRESS_UPDATE=1 rewrites the
// golden from the Parallelism 1 runs and checks the others against it.
func TestPipelinedParallelismMatrix(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("engine bits are pinned on amd64; FMA fusion on %s can change them", runtime.GOARCH)
	}
	update := os.Getenv("REGRESS_UPDATE") != ""
	golden := map[string]engineBits{}
	if !update {
		raw, err := os.ReadFile(engineBitsPath)
		if err != nil {
			t.Fatalf("read engine bits: %v (regenerate with REGRESS_UPDATE=1)", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("decode %s: %v", engineBitsPath, err)
		}
	}
	cell := sram.NewCell(0.5)
	cfg := rtn.TableIConfig(cell)
	for _, tc := range stagedCases {
		t.Run(tc.name, func(t *testing.T) {
			sampler := stagedSampler(cell, cfg, tc.rtn)
			pars := []int{1, 2, 8}
			if p := tc.opts.Parallelism; p > 1 && p != 2 && p != 8 {
				pars = append(pars, p)
			}
			for _, par := range pars {
				opts := tc.opts
				opts.Parallelism = par
				res := mustRun(t, NewEngine(cell, nil, opts), rand.New(rand.NewSource(91)), sampler)
				requireRunAccounting(t, tc.opts, res)
				got := newEngineBits(t, res)
				if update && par == 1 {
					golden[tc.name] = got
					continue
				}
				want, ok := golden[tc.name]
				if !ok {
					t.Fatalf("no golden entry (regenerate with REGRESS_UPDATE=1)")
				}
				if got != want {
					t.Fatalf("par=%d: engine bits diverged from the golden:\ngot  %+v\nwant %+v", par, got, want)
				}
			}
		})
	}
	if update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(engineBitsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineBitsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", engineBitsPath)
	}
}

// requireRunAccounting checks the accounting invariants every run must
// satisfy: the solver telemetry is wired, the batch kernel carries every
// margin except write mode's scalar solve, lane occupancy never exceeds the
// slots issued, and stage 2 runs ceil(NIS/batch) pipelined windows.
func requireRunAccounting(t *testing.T, opts Options, r Result) {
	t.Helper()
	if r.RootSolves == 0 || r.SolverIters == 0 {
		t.Fatalf("solver telemetry not wired: solves=%d iters=%d", r.RootSolves, r.SolverIters)
	}
	if opts.Mode == WriteFailure {
		if r.LaneSlots != 0 {
			t.Fatalf("write mode issued %d lane slots; its margin is the scalar solve", r.LaneSlots)
		}
	} else if r.LaneSlots == 0 {
		t.Fatalf("batched indicator issued no lane slots")
	}
	if r.LaneOccupied > r.LaneSlots {
		t.Fatalf("lane occupancy %d exceeds slots %d", r.LaneOccupied, r.LaneSlots)
	}
	if want := int64((opts.NIS + stage2Batch - 1) / stage2Batch); r.PipelinedBatches != want {
		t.Fatalf("pipelined batches = %d, want %d", r.PipelinedBatches, want)
	}
	if r.PipelineGenNS <= 0 {
		t.Fatalf("pipelined stage 2 recorded no generation time")
	}
}
