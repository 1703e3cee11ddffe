// Package service implements the ecripsed yield-analysis daemon: an
// HTTP/JSON API over asynchronous yield-estimation jobs, backed by a bounded
// FIFO queue, a configurable worker pool with per-job panic recovery and
// graceful drain, a content-addressed LRU result cache, and an
// expvar-style metrics endpoint.
//
// Every job is deterministic for a fixed (spec, seed): the runner derives
// all randomness from the spec's seed and the estimators consume no entropy
// from cancellation checkpoints. That determinism is what makes the result
// cache sound — a cache hit is byte-identical to re-running the job.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ecripse/internal/core"
	"ecripse/internal/device"
	"ecripse/internal/sram"
)

// Estimator names accepted by JobSpec.Estimator.
const (
	EstECRIPSE  = "ecripse"
	EstNaive    = "naive"
	EstSIS      = "sis"
	EstBlockade = "blockade"
	EstSubset   = "subset"
)

// JobSpec describes one yield-estimation job. The zero value of optional
// fields selects the documented defaults; Normalize makes the defaults
// explicit so that equivalent specs hash to the same cache key.
type JobSpec struct {
	// Cell optionally selects a custom 6T geometry (design-space
	// exploration). When nil, the paper's Table I cell at Vdd/TempK is used.
	Cell *sram.CellSpec `json:"cell,omitempty"`
	// Vdd is the supply voltage [V] (default the 16 nm HP nominal supply).
	// Ignored when Cell is set (the cell spec carries its own supply).
	Vdd float64 `json:"vdd,omitempty"`
	// TempK is the junction temperature [K] (0 = the device default, 300 K).
	// Ignored when Cell is set.
	TempK float64 `json:"temp_k,omitempty"`
	// Mode is the failure criterion: "read" (default), "write" or "hold".
	Mode string `json:"mode,omitempty"`
	// Estimator selects the method: "ecripse" (default), "naive", "sis",
	// "blockade" or "subset".
	Estimator string `json:"estimator,omitempty"`
	// RTN includes RTN-induced variability (estimators "ecripse" and
	// "naive" only).
	RTN bool `json:"rtn,omitempty"`
	// Alpha is the storage duty ratio for RTN jobs (default 0.5).
	Alpha float64 `json:"alpha,omitempty"`
	// Sweep runs a full duty-ratio sweep (Fig. 8 workload) over the given
	// alphas, sharing the boundary initialization and the classifier across
	// points; requires RTN and the ecripse estimator.
	Sweep []float64 `json:"sweep,omitempty"`
	// Seed is the random seed (default 1). Results are deterministic in it.
	Seed int64 `json:"seed,omitempty"`
	// N is the sample budget: importance samples for ecripse/sis, Monte
	// Carlo trials for naive/blockade, samples per level for subset.
	N int `json:"n,omitempty"`
	// M is the number of RTN draws per RDF sample (default 20; RTN only).
	M int `json:"m,omitempty"`
	// NoClassifier disables the SVM blockade of the ecripse estimator.
	NoClassifier bool `json:"no_classifier,omitempty"`
	// MaxSims optionally bounds the transistor-level simulations; the job
	// stops cleanly at the budget and reports the partial series, or fails
	// when the budget runs out before the series has its first point.
	MaxSims int64 `json:"max_sims,omitempty"`
	// Parallelism is the intra-job worker count for the ecripse estimator's
	// hot loops (0 = serial). It is an execution knob, not part of the
	// result: estimates are bit-identical at any level, so Key ignores it
	// and the service caps it so pool-level and intra-job parallelism
	// compose (see Config.MaxJobParallelism).
	Parallelism int `json:"parallelism,omitempty"`
	// WarmIn names the content key of a predecessor job whose exported warm
	// state (final particle cloud, trained classifier, trust radius) seeds
	// this job's engine, skipping boundary search and classifier warm-up.
	// The sweep planner sets it to chain adjacent grid points; it requires
	// estimator=ecripse and a 64-hex content key whose result must already be
	// resolvable when the job runs. Warm seeding changes the engine's
	// randomness consumption, so — unlike Parallelism — it is part of the
	// cache key: a warm point's key transitively encodes its whole
	// predecessor chain.
	WarmIn string `json:"warm_in,omitempty"`
	// WarmCloudOnly restricts the warm input to the particle cloud: the
	// predecessor's classifier and trust radius are dropped, and every label
	// is answered by the true simulator. The planner sets it when adjacent
	// points differ in operating point (Vdd/TempK) — the classifier is
	// cell-specific, but the neighboring cloud is still a far better stage-1
	// seed than a fresh boundary search.
	WarmCloudOnly bool `json:"warm_cloud_only,omitempty"`
	// ExportWarm includes the engine's final warm state in the result payload
	// so a successor job can WarmIn it. Part of the cache key (the payload
	// differs), which keeps plain point jobs and sweep-chained ones distinct.
	ExportWarm bool `json:"export_warm,omitempty"`
}

// Normalize applies the documented defaults in place and validates the
// spec. It must be called (once) before Key, so that equivalent specs are
// content-addressed identically.
func (s *JobSpec) Normalize() error {
	if s.Cell != nil {
		// Let the cell spec carry the operating point; zero fields take the
		// Table I values exactly as sram.NewCellFrom documents.
		if s.Vdd != 0 || s.TempK != 0 {
			return fmt.Errorf("spec: vdd/temp_k conflict with cell (set them inside the cell spec)")
		}
	} else if s.Vdd == 0 {
		s.Vdd = device.VddNominal
	}
	if s.Vdd < 0 || s.TempK < 0 {
		return fmt.Errorf("spec: negative vdd or temp_k")
	}
	// NaN/Inf would pass the range checks below (NaN compares false to
	// everything) and then blow up canonical marshaling in Key.
	if !finite(s.Vdd) || !finite(s.TempK) || !finite(s.Alpha) {
		return fmt.Errorf("spec: vdd, temp_k and alpha must be finite")
	}
	for _, a := range s.Sweep {
		if !finite(a) {
			return fmt.Errorf("spec: sweep duty ratios must be finite")
		}
	}
	switch s.Mode {
	case "":
		s.Mode = "read"
	case "read", "write", "hold":
	default:
		return fmt.Errorf("spec: unknown mode %q (want read, write or hold)", s.Mode)
	}
	switch s.Estimator {
	case "":
		s.Estimator = EstECRIPSE
	case EstECRIPSE, EstNaive, EstSIS, EstBlockade, EstSubset:
	default:
		return fmt.Errorf("spec: unknown estimator %q", s.Estimator)
	}
	if s.RTN && s.Estimator != EstECRIPSE && s.Estimator != EstNaive {
		return fmt.Errorf("spec: estimator %q is RDF-only (rtn unsupported)", s.Estimator)
	}
	if len(s.Sweep) > 0 {
		if !s.RTN || s.Estimator != EstECRIPSE {
			return fmt.Errorf("spec: sweep requires rtn=true and estimator=ecripse")
		}
		for _, a := range s.Sweep {
			if a < 0 || a > 1 {
				return fmt.Errorf("spec: sweep duty ratio %v outside [0,1]", a)
			}
		}
		s.Alpha = 0 // irrelevant with a sweep; zero it for canonical hashing
	}
	if s.RTN && len(s.Sweep) == 0 {
		if s.Alpha == 0 {
			s.Alpha = 0.5
		}
		if s.Alpha < 0 || s.Alpha > 1 {
			return fmt.Errorf("spec: duty ratio %v outside [0,1]", s.Alpha)
		}
	}
	if !s.RTN {
		s.Alpha = 0
		s.M = 0
	} else if s.M == 0 {
		s.M = 20
	}
	if s.M < 0 {
		return fmt.Errorf("spec: negative m")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.N < 0 {
		return fmt.Errorf("spec: negative n")
	}
	if s.N == 0 {
		switch s.Estimator {
		case EstECRIPSE, EstSIS:
			s.N = 20000
		case EstNaive, EstBlockade:
			s.N = 200000
		case EstSubset:
			s.N = 1000
		}
	}
	if s.MaxSims < 0 {
		return fmt.Errorf("spec: negative max_sims")
	}
	if s.NoClassifier && s.Estimator != EstECRIPSE {
		return fmt.Errorf("spec: no_classifier applies to estimator=ecripse only")
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("spec: negative parallelism")
	}
	if s.Parallelism != 0 && s.Estimator != EstECRIPSE {
		return fmt.Errorf("spec: parallelism applies to estimator=ecripse only")
	}
	if s.WarmIn != "" {
		if s.Estimator != EstECRIPSE {
			return fmt.Errorf("spec: warm_in applies to estimator=ecripse only")
		}
		if !validKey(s.WarmIn) {
			return fmt.Errorf("spec: warm_in %q is not a 64-hex content key", s.WarmIn)
		}
	}
	if s.WarmCloudOnly && s.WarmIn == "" {
		return fmt.Errorf("spec: warm_cloud_only requires warm_in")
	}
	if s.ExportWarm && s.Estimator != EstECRIPSE {
		return fmt.Errorf("spec: export_warm applies to estimator=ecripse only")
	}
	return nil
}

// validKey reports whether k looks like a content key: 64 lowercase hex
// characters, as Key produces.
func validKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Key returns the content address of the (normalized) spec: the hex SHA-256
// of its canonical JSON encoding. Struct fields marshal in declaration
// order, so the encoding — and therefore the cache key — is deterministic.
// Parallelism is excluded (zeroed on the value receiver's copy): it only
// chooses how many goroutines compute the result, never what the result is,
// so specs differing only in it must share a cache entry.
func (s JobSpec) Key() string {
	s.Parallelism = 0
	b, err := json.Marshal(s)
	if err != nil {
		panic("service: spec marshal: " + err.Error()) // structurally impossible
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// buildCell constructs the cell the spec describes.
func (s JobSpec) buildCell() *sram.Cell {
	if s.Cell != nil {
		return sram.NewCellFrom(*s.Cell)
	}
	if s.TempK > 0 {
		return sram.NewCellAt(s.Vdd, s.TempK)
	}
	return sram.NewCell(s.Vdd)
}

// failureMode maps the spec's mode string onto the core enum.
func (s JobSpec) failureMode() core.FailureMode {
	switch s.Mode {
	case "write":
		return core.WriteFailure
	case "hold":
		return core.HoldFailure
	default:
		return core.ReadFailure
	}
}
