package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// MaxSweepPoints bounds a sweep grid (the product of all axis lengths). The
// HTTP layer answers 400 for anything larger.
const MaxSweepPoints = 10000

// ErrTooManyPoints is wrapped by Normalize when a grid exceeds
// MaxSweepPoints.
var ErrTooManyPoints = errors.New("sweep grid exceeds the point limit")

// Axis is one sweep dimension: either explicit Values, or a From/To/Steps
// range that Normalize expands (inclusive endpoints; From > To sweeps
// downward). After Normalize only Values is populated.
type Axis struct {
	Values []float64 `json:"values,omitempty"`
	From   float64   `json:"from,omitempty"`
	To     float64   `json:"to,omitempty"`
	Steps  int       `json:"steps,omitempty"`
}

// expand canonicalizes the axis in place: ranges become explicit Values and
// the range fields are zeroed, so equivalent axes hash identically.
func (a *Axis) expand(name string) error {
	if len(a.Values) > 0 {
		if a.From != 0 || a.To != 0 || a.Steps != 0 {
			return fmt.Errorf("sweep: %s axis sets both values and a from/to/steps range", name)
		}
	} else {
		if a.Steps < 1 {
			return fmt.Errorf("sweep: %s axis is empty (no values, steps < 1)", name)
		}
		if a.Steps > MaxSweepPoints {
			return fmt.Errorf("sweep: %s axis steps %d: %w", name, a.Steps, ErrTooManyPoints)
		}
		if !finite(a.From) || !finite(a.To) {
			return fmt.Errorf("sweep: %s axis range must be finite", name)
		}
		if a.Steps == 1 {
			if a.To != a.From && a.To != 0 {
				return fmt.Errorf("sweep: %s axis has steps=1 but from != to", name)
			}
			a.Values = []float64{a.From}
		} else {
			if a.To == a.From {
				return fmt.Errorf("sweep: %s axis range is degenerate (from == to with steps > 1)", name)
			}
			a.Values = make([]float64, a.Steps)
			span := a.To - a.From
			for i := range a.Values {
				a.Values[i] = a.From + span*float64(i)/float64(a.Steps-1)
			}
		}
		a.From, a.To, a.Steps = 0, 0, 0
	}
	if len(a.Values) > MaxSweepPoints {
		return fmt.Errorf("sweep: %s axis has %d values: %w", name, len(a.Values), ErrTooManyPoints)
	}
	seen := make(map[float64]struct{}, len(a.Values))
	for _, v := range a.Values {
		if !finite(v) {
			return fmt.Errorf("sweep: %s axis value is not finite", name)
		}
		// A repeated value would expand into two grid points with identical
		// specs — and, on a cold sweep, colliding content keys — so the grid
		// would no longer address its points uniquely.
		if _, dup := seen[v]; dup {
			return fmt.Errorf("sweep: %s axis repeats value %v", name, v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// SweepSpec describes a grid of yield-estimation points sharing one base
// spec: a duty-ratio (alpha) axis, a supply axis, a temperature axis, or any
// combination (the grid is their cross product, temperature outermost and
// alpha innermost). With WarmStart, the planner chains adjacent points: each
// point's particle filters are seeded from its predecessor's final cloud and
// — when both points share an operating point — the trained classifier rides
// along, cutting the per-point boundary-search and warm-up cost to zero.
type SweepSpec struct {
	// Base carries everything the axes do not: estimator, mode, seed,
	// budgets. Axis-covered fields (alpha/vdd/temp_k) must be zero in it.
	Base JobSpec `json:"base"`
	// Alpha sweeps the RTN storage duty ratio (requires base rtn=true and
	// the ecripse estimator); values must lie in [0,1].
	Alpha *Axis `json:"alpha,omitempty"`
	// Vdd sweeps the supply voltage [V]; values must be positive.
	Vdd *Axis `json:"vdd,omitempty"`
	// TempK sweeps the junction temperature [K]; values must be positive.
	TempK *Axis `json:"temp_k,omitempty"`
	// WarmStart chains adjacent points (ecripse only). It changes every
	// point's cache key — warm results are distinct deterministic outcomes —
	// so warm and cold sweeps never share point cache entries.
	WarmStart bool `json:"warm_start,omitempty"`
}

// Normalize expands the axes, validates every grid value, canonicalizes the
// base spec, and bounds the grid at MaxSweepPoints. Must be called before
// Key or Points.
func (s *SweepSpec) Normalize() error {
	if s.Alpha == nil && s.Vdd == nil && s.TempK == nil {
		return fmt.Errorf("sweep: at least one axis (alpha, vdd, temp_k) required")
	}
	points := 1
	for _, ax := range []struct {
		name string
		axis *Axis
	}{{"alpha", s.Alpha}, {"vdd", s.Vdd}, {"temp_k", s.TempK}} {
		if ax.axis == nil {
			continue
		}
		if err := ax.axis.expand(ax.name); err != nil {
			return err
		}
		points *= len(ax.axis.Values)
		if points > MaxSweepPoints {
			return fmt.Errorf("sweep: %d-point grid: %w", points, ErrTooManyPoints)
		}
	}
	if s.Alpha != nil {
		for _, v := range s.Alpha.Values {
			if v < 0 || v > 1 {
				return fmt.Errorf("sweep: alpha value %v outside [0,1]", v)
			}
		}
		if s.Base.Alpha != 0 {
			return fmt.Errorf("sweep: alpha axis conflicts with base alpha")
		}
		if !s.Base.RTN {
			return fmt.Errorf("sweep: alpha axis requires base rtn=true")
		}
	}
	if s.Vdd != nil {
		for _, v := range s.Vdd.Values {
			if v <= 0 {
				return fmt.Errorf("sweep: vdd value %v must be positive", v)
			}
		}
		if s.Base.Vdd != 0 || s.Base.Cell != nil {
			return fmt.Errorf("sweep: vdd axis conflicts with base vdd/cell")
		}
	}
	if s.TempK != nil {
		for _, v := range s.TempK.Values {
			if v <= 0 {
				return fmt.Errorf("sweep: temp_k value %v must be positive", v)
			}
		}
		if s.Base.TempK != 0 || s.Base.Cell != nil {
			return fmt.Errorf("sweep: temp_k axis conflicts with base temp_k/cell")
		}
	}
	if len(s.Base.Sweep) > 0 {
		return fmt.Errorf("sweep: base spec must not carry a legacy sweep field (use the alpha axis)")
	}
	if s.Base.WarmIn != "" || s.Base.WarmCloudOnly || s.Base.ExportWarm {
		return fmt.Errorf("sweep: the planner owns warm linkage; clear warm_in/warm_cloud_only/export_warm in the base")
	}

	// Canonicalize the base by normalizing the first grid point's spec, then
	// zeroing the axis-covered fields back out. This both validates the base
	// against the real point-spec rules and makes equivalent bases (implicit
	// vs explicit defaults) hash identically.
	probe := s.Base
	if s.Alpha != nil {
		probe.Sweep = []float64{s.Alpha.Values[0]}
	}
	if s.Vdd != nil {
		probe.Vdd = s.Vdd.Values[0]
	}
	if s.TempK != nil {
		probe.TempK = s.TempK.Values[0]
	}
	if err := probe.Normalize(); err != nil {
		return fmt.Errorf("sweep base: %w", err)
	}
	if s.Alpha != nil {
		probe.Sweep = nil
	}
	if s.Vdd != nil {
		probe.Vdd = 0
	}
	if s.TempK != nil {
		probe.TempK = 0
	}
	s.Base = probe

	if s.WarmStart && s.Base.Estimator != EstECRIPSE {
		return fmt.Errorf("sweep: warm_start requires the ecripse estimator")
	}
	return nil
}

// NumPoints returns the grid size of a normalized spec.
func (s SweepSpec) NumPoints() int {
	n := 1
	for _, a := range []*Axis{s.Alpha, s.Vdd, s.TempK} {
		if a != nil {
			n *= len(a.Values)
		}
	}
	return n
}

// Key is the sweep's content address: the hex SHA-256 of the normalized
// spec's canonical JSON. Like JobSpec.Key, the base's Parallelism is
// excluded; WarmStart is included (warm and cold sweeps produce different
// point results).
func (s SweepSpec) Key() string {
	s.Base.Parallelism = 0
	b, err := json.Marshal(s)
	if err != nil {
		panic("service: sweep spec marshal: " + err.Error()) // structurally impossible
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// PointPlan is one expanded grid point: its axis coordinates, the fully
// normalized point JobSpec (with warm linkage applied), and the point's
// content key. Nil coordinates mean the sweep has no such axis.
type PointPlan struct {
	Index int      `json:"index"`
	Alpha *float64 `json:"alpha,omitempty"`
	Vdd   *float64 `json:"vdd,omitempty"`
	TempK *float64 `json:"temp_k,omitempty"`
	// Warm reports that the point is seeded from its predecessor; CloudOnly
	// that only the cloud is carried (operating point changed).
	Warm      bool    `json:"warm,omitempty"`
	CloudOnly bool    `json:"cloud_only,omitempty"`
	Key       string  `json:"key"`
	Spec      JobSpec `json:"spec"`
}

// Points expands a normalized sweep into its point plans in grid order
// (temperature outermost, supply, then duty ratio innermost — so warm chains
// run along the alpha axis within one operating point, which is where the
// classifier carry-over is valid). With WarmStart, point i's spec names point
// i-1's key as warm_in, drops to cloud-only seeding across operating-point
// changes, and every non-final point exports its warm state.
func (s SweepSpec) Points() ([]PointPlan, error) {
	one := []float64{0}
	temps, hasTemp := one, false
	if s.TempK != nil {
		temps, hasTemp = s.TempK.Values, true
	}
	vdds, hasVdd := one, false
	if s.Vdd != nil {
		vdds, hasVdd = s.Vdd.Values, true
	}
	alphas, hasAlpha := one, false
	if s.Alpha != nil {
		alphas, hasAlpha = s.Alpha.Values, true
	}
	total := len(temps) * len(vdds) * len(alphas)
	out := make([]PointPlan, 0, total)
	prevKey := ""
	for _, tv := range temps {
		for _, vv := range vdds {
			for ai, av := range alphas {
				spec := s.Base
				if hasTemp {
					spec.TempK = tv
				}
				if hasVdd {
					spec.Vdd = vv
				}
				if hasAlpha {
					// A single-element legacy sweep, not Alpha: Normalize
					// defaults alpha=0 to 0.5, while the sweep field carries
					// the endpoint duty ratios (0 and 1) exactly.
					spec.Sweep = []float64{av}
				}
				idx := len(out)
				if s.WarmStart && idx > 0 {
					spec.WarmIn = prevKey
					// The operating point changed unless only the (innermost)
					// alpha coordinate stepped.
					if !hasAlpha || ai == 0 {
						spec.WarmCloudOnly = true
					}
				}
				if s.WarmStart && idx < total-1 {
					spec.ExportWarm = true
				}
				if err := spec.Normalize(); err != nil {
					return nil, fmt.Errorf("sweep point %d: %w", idx, err)
				}
				key := spec.Key()
				plan := PointPlan{Index: idx, Warm: spec.WarmIn != "", CloudOnly: spec.WarmCloudOnly, Key: key, Spec: spec}
				if hasAlpha {
					a := av
					plan.Alpha = &a
				}
				if hasVdd {
					v := vv
					plan.Vdd = &v
				}
				if hasTemp {
					tk := tv
					plan.TempK = &tk
				}
				out = append(out, plan)
				prevKey = key
			}
		}
	}
	return out, nil
}
