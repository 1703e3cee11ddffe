// Statistical-health watchdog: a rule engine the estimator feeds at its
// existing synchronization boundaries (particle-filter rounds and 256-draw
// stage-2 barriers). The rules flag the degeneracies that make an ECRIPSE
// estimate untrustworthy long before the CI does — ESS collapse, a single
// weight dominating a filter, a starved failure lobe, a CI half-width that
// stopped shrinking, blockade-classifier flip-rate drift — plus one
// wall-clock rule (pipelined-path stall-fraction regression).
//
// Determinism contract: every rule except the pipeline-stall rule is a pure
// function of scheduling-independent diagnostics, so the Report() that lands
// in a cached result is bit-identical at any parallelism. Wall-clock-derived
// verdicts NEVER enter Report(): they only fire the observer callback and
// are listed separately by WallViolations(), keeping the content-addressed
// result cache honest.
package obsv

import (
	"context"
	"fmt"
	"sync"
)

// Health rule names (the `rule` label of ecripsed_health_violations_total).
const (
	RuleESSCollapse    = "ess_collapse"     // filter ESS below ESSFrac × particles
	RuleMaxWeight      = "max_weight_spike" // one weight carries > MaxWeightFrac of a filter's mass
	RuleLobeStarvation = "lobe_starvation"  // fewer than MinUnique distinct candidates survived resampling
	RuleCIStall        = "ci_stall"         // CI half-width stopped shrinking across CIStallWindow barriers
	RuleFlipDrift      = "flip_drift"       // classifier disagreement rate drifted above its baseline
	RulePipelineStall  = "pipeline_stall"   // wall-clock only: stage-2 stall fraction regressed
)

// HealthConfig holds the rule thresholds. The zero value means "use
// DefaultHealthConfig" wherever a monitor is constructed from it. Integer
// fields where zero is a meaningful setting (GraceRounds, ESSPersist) treat
// zero as "default" and any negative value as an explicit zero.
type HealthConfig struct {
	// GraceRounds exempts the first rounds from the per-filter rules: the
	// cloud right after the concentrated boundary-search init is structurally
	// collapsed (ESS ≈ 1 before the first resampling spreads it), so flagging
	// round 0 would mark every run unhealthy. Negative means no grace.
	GraceRounds int `json:"grace_rounds"`
	// ESSFrac: a filter whose round ESS falls below ESSFrac × Particles is
	// collapsing onto few candidates.
	ESSFrac float64 `json:"ess_frac"`
	// ESSPersist: the ESS rule fires only after the same filter has stayed
	// below threshold for this many consecutive observed rounds — one noisy
	// dip is normal PF behavior, a sustained run means the lobe is stuck.
	// Negative means fire on the first dip.
	ESSPersist int `json:"ess_persist"`
	// MaxWeightFrac: a single candidate carrying more than this fraction of
	// a filter's weight mass dominates the lobe.
	MaxWeightFrac float64 `json:"max_weight_frac"`
	// MinUnique: fewer distinct candidates surviving resampling means the
	// lobe is starved (0 unique = the degenerate kept-cloud round).
	MinUnique int `json:"min_unique"`
	// CIStallWindow / CIStallTol: the CI half-width must shrink by at least
	// CIStallTol (relative) once per CIStallWindow consecutive barriers.
	CIStallWindow int     `json:"ci_stall_window"`
	CIStallTol    float64 `json:"ci_stall_tol"`
	// FlipMinObs / FlipRateDrift: once FlipMinObs replayed observations have
	// accumulated, a barrier window whose classifier disagreement rate
	// exceeds the running baseline by more than FlipRateDrift is drifting.
	FlipMinObs    int64   `json:"flip_min_obs"`
	FlipRateDrift float64 `json:"flip_rate_drift"`
	// StallFrac: wall-clock rule — the pipelined driver spending more than
	// this fraction of generation time stalled at barriers.
	StallFrac float64 `json:"stall_frac"`
}

// DefaultHealthConfig returns the thresholds used when no config is given.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		GraceRounds:   1,
		ESSFrac:       0.2,
		ESSPersist:    2,
		MaxWeightFrac: 0.9,
		MinUnique:     3,
		CIStallWindow: 8,
		CIStallTol:    0.01,
		FlipMinObs:    64,
		FlipRateDrift: 0.25,
		StallFrac:     0.5,
	}
}

// fill replaces zero fields with their defaults so a partially-specified
// config behaves sensibly.
func (c *HealthConfig) fill() {
	d := DefaultHealthConfig()
	switch {
	case c.GraceRounds == 0:
		c.GraceRounds = d.GraceRounds
	case c.GraceRounds < 0:
		c.GraceRounds = 0
	}
	if c.ESSFrac <= 0 {
		c.ESSFrac = d.ESSFrac
	}
	switch {
	case c.ESSPersist == 0:
		c.ESSPersist = d.ESSPersist
	case c.ESSPersist < 0:
		c.ESSPersist = 1
	}
	if c.MaxWeightFrac <= 0 {
		c.MaxWeightFrac = d.MaxWeightFrac
	}
	if c.MinUnique <= 0 {
		c.MinUnique = d.MinUnique
	}
	if c.CIStallWindow <= 0 {
		c.CIStallWindow = d.CIStallWindow
	}
	if c.CIStallTol <= 0 {
		c.CIStallTol = d.CIStallTol
	}
	if c.FlipMinObs <= 0 {
		c.FlipMinObs = d.FlipMinObs
	}
	if c.FlipRateDrift <= 0 {
		c.FlipRateDrift = d.FlipRateDrift
	}
	if c.StallFrac <= 0 {
		c.StallFrac = d.StallFrac
	}
}

// HealthViolation is one rule firing at one boundary.
type HealthViolation struct {
	Rule      string  `json:"rule"`
	Stage     string  `json:"stage"`            // "pf" or "is"
	Round     int     `json:"round"`            // PF round or IS barrier ordinal
	Filter    int     `json:"filter"`           // filter index for per-lobe rules; -1 otherwise
	Value     float64 `json:"value"`            // the observed statistic
	Threshold float64 `json:"threshold"`        // the limit it crossed
	Detail    string  `json:"detail,omitempty"` // human-readable one-liner
}

// HealthReport is the deterministic verdict block attached to results.
type HealthReport struct {
	// Healthy is true when no deterministic rule fired.
	Healthy bool `json:"healthy"`
	// Checks counts rule evaluations (a coverage signal: 0 means the
	// watchdog never ran, not that the run was clean).
	Checks int64 `json:"checks"`
	// Violations lists the deterministic rule firings, capped at
	// maxViolations; Suppressed counts the overflow.
	Violations []HealthViolation `json:"violations,omitempty"`
	Suppressed int64             `json:"suppressed,omitempty"`
	// MaxTermShare is the share of the stage-2 importance-sampling estimate
	// carried by its single largest term (see ObserveTermShare); 0 when
	// stage 2 folded no positive term. Information, not a verdict: no rule
	// reads it and it never makes a report unhealthy.
	MaxTermShare float64 `json:"max_term_share,omitempty"`
}

// maxViolations bounds the stored violation list (a pathological run firing
// every round must not bloat cached results); the total count survives in
// Suppressed.
const maxViolations = 128

// FilterHealth is the per-filter slice of one PF round the monitor consumes
// (mirrors core.FilterDiag without importing it — core depends on obsv).
type FilterHealth struct {
	Particles     int
	ESS           float64
	MaxWeightFrac float64
	Unique        int
}

// HealthMonitor evaluates the rules. Safe for concurrent use, though the
// engine only observes from single-threaded barrier code. The optional
// observer fires on EVERY violation — deterministic and wall-clock alike —
// which is how violations stream over SSE and count into Prometheus.
type HealthMonitor struct {
	cfg      HealthConfig
	observer func(HealthViolation)

	mu         sync.Mutex
	checks     int64
	violations []HealthViolation
	suppressed int64
	wall       []HealthViolation // wall-clock verdicts, never in Report()

	// Per-filter ESS-persistence state: consecutive observed rounds each
	// filter has spent below its ESS threshold.
	essRun map[int]int

	// CI-stall state.
	lastCI    float64
	stallRun  int
	ciFired   bool
	isBarrier int

	// Flip-drift state.
	flipObs      int64
	flipDisagree int64

	// termShare is the last stage-2 largest-term share observed.
	termShare float64
}

// NewHealthMonitor builds a monitor; zero-valued config fields take their
// defaults, observer may be nil.
func NewHealthMonitor(cfg HealthConfig, observer func(HealthViolation)) *HealthMonitor {
	cfg.fill()
	return &HealthMonitor{cfg: cfg, observer: observer, essRun: make(map[int]int)}
}

// record appends a deterministic violation (capped) and fires the observer.
func (m *HealthMonitor) record(v HealthViolation) {
	if len(m.violations) < maxViolations {
		m.violations = append(m.violations, v)
	} else {
		m.suppressed++
	}
	if m.observer != nil {
		m.observer(v)
	}
}

// ObservePFRound evaluates the per-filter stage-1 rules for one round.
// Rounds inside the grace window only update persistence state; the ESS rule
// additionally waits for ESSPersist consecutive sub-threshold rounds so a
// single noisy dip never flags a healthy filter.
func (m *HealthMonitor) ObservePFRound(round int, filters []FilterHealth) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Grace rounds are skipped entirely — they neither fire rules nor feed
	// the persistence counters, so a structural round-0 collapse cannot
	// pre-charge the ESS run.
	if round < m.cfg.GraceRounds {
		return
	}
	for fi, f := range filters {
		m.checks += 3
		if minESS := m.cfg.ESSFrac * float64(f.Particles); f.ESS < minESS {
			m.essRun[fi]++
			if m.essRun[fi] >= m.cfg.ESSPersist {
				m.record(HealthViolation{
					Rule: RuleESSCollapse, Stage: "pf", Round: round, Filter: fi,
					Value: f.ESS, Threshold: minESS,
					Detail: fmt.Sprintf("filter %d ESS %.2f < %.2f (%.0f%% of %d particles) for %d consecutive rounds",
						fi, f.ESS, minESS, m.cfg.ESSFrac*100, f.Particles, m.essRun[fi]),
				})
			}
		} else {
			m.essRun[fi] = 0
		}
		if f.MaxWeightFrac > m.cfg.MaxWeightFrac {
			m.record(HealthViolation{
				Rule: RuleMaxWeight, Stage: "pf", Round: round, Filter: fi,
				Value: f.MaxWeightFrac, Threshold: m.cfg.MaxWeightFrac,
				Detail: fmt.Sprintf("filter %d max-weight fraction %.3f > %.3f", fi, f.MaxWeightFrac, m.cfg.MaxWeightFrac),
			})
		}
		if f.Unique < m.cfg.MinUnique {
			m.record(HealthViolation{
				Rule: RuleLobeStarvation, Stage: "pf", Round: round, Filter: fi,
				Value: float64(f.Unique), Threshold: float64(m.cfg.MinUnique),
				Detail: fmt.Sprintf("filter %d kept %d unique candidates < %d", fi, f.Unique, m.cfg.MinUnique),
			})
		}
	}
}

// ObserveISBatch evaluates the CI-stall rule at one stage-2 barrier. The
// rule fires once per run: CIStallWindow consecutive barriers in which the
// 95% half-width failed to shrink by CIStallTol (relative) while a non-zero
// estimate exists.
func (m *HealthMonitor) ObserveISBatch(samples int, p, ciHalf float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.isBarrier++
	m.checks++
	if p > 0 && m.lastCI > 0 && ciHalf > 0 {
		if (m.lastCI-ciHalf)/m.lastCI < m.cfg.CIStallTol {
			m.stallRun++
		} else {
			m.stallRun = 0
		}
		if m.stallRun >= m.cfg.CIStallWindow && !m.ciFired {
			m.ciFired = true
			m.record(HealthViolation{
				Rule: RuleCIStall, Stage: "is", Round: m.isBarrier - 1, Filter: -1,
				Value: ciHalf, Threshold: m.cfg.CIStallTol,
				Detail: fmt.Sprintf("CI half-width %.3g flat for %d barriers (samples=%d)", ciHalf, m.stallRun, samples),
			})
		}
	}
	m.lastCI = ciHalf
}

// ObserveFlips evaluates the classifier flip-rate drift rule for one
// barrier window: `replayed` observations replayed into the classifier, of
// which `disagreed` contradicted the frozen prediction. Once a baseline of
// FlipMinObs observations exists, a window whose disagreement rate exceeds
// the running baseline by FlipRateDrift is flagged.
func (m *HealthMonitor) ObserveFlips(stage string, round int, replayed, disagreed int64) {
	if m == nil || replayed <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checks++
	if m.flipObs >= m.cfg.FlipMinObs && replayed >= 16 {
		baseline := float64(m.flipDisagree) / float64(m.flipObs)
		rate := float64(disagreed) / float64(replayed)
		if rate-baseline > m.cfg.FlipRateDrift {
			m.record(HealthViolation{
				Rule: RuleFlipDrift, Stage: stage, Round: round, Filter: -1,
				Value: rate, Threshold: baseline + m.cfg.FlipRateDrift,
				Detail: fmt.Sprintf("classifier disagreement %.3f vs baseline %.3f over %d replays", rate, baseline, replayed),
			})
		}
	}
	m.flipObs += replayed
	m.flipDisagree += disagreed
}

// ObserveTermShare records the share of the stage-2 estimate that its
// largest importance-sampling term carries, once per stage 2. It is
// reported, not judged: the share of one run does not tell a run that
// missed from one that did not, so no rule fires on it and it counts no
// check. Deterministic (an index-ordered fold), so it belongs in Report().
func (m *HealthMonitor) ObserveTermShare(share float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.termShare = share
}

// ObservePipeline evaluates the wall-clock stall-fraction rule once at the
// end of a pipelined stage 2. Its verdict fires the observer and is listed
// by WallViolations() but never enters Report() — wall-clock numbers must
// not reach content-addressed results.
func (m *HealthMonitor) ObservePipeline(batches, genNS, stallNS int64) {
	if m == nil || batches <= 0 || genNS <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	frac := float64(stallNS) / float64(genNS)
	if frac > m.cfg.StallFrac {
		v := HealthViolation{
			Rule: RulePipelineStall, Stage: "is", Round: int(batches), Filter: -1,
			Value: frac, Threshold: m.cfg.StallFrac,
			Detail: fmt.Sprintf("pipeline stalled %.0f%% of generation time over %d batches", frac*100, batches),
		}
		m.wall = append(m.wall, v)
		if m.observer != nil {
			m.observer(v)
		}
	}
}

// Report returns the deterministic verdict block (safe to cache with the
// result). The returned slices are copies.
func (m *HealthMonitor) Report() *HealthReport {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &HealthReport{
		Healthy:      len(m.violations) == 0 && m.suppressed == 0,
		Checks:       m.checks,
		Suppressed:   m.suppressed,
		MaxTermShare: m.termShare,
	}
	if len(m.violations) > 0 {
		r.Violations = append([]HealthViolation(nil), m.violations...)
	}
	return r
}

// WallViolations returns the wall-clock-derived verdicts (observational
// only; excluded from Report).
func (m *HealthMonitor) WallViolations() []HealthViolation {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]HealthViolation(nil), m.wall...)
}

// Context carrier: the engine looks the monitor up at RunCtx entry, exactly
// like the emitter.

type healthKey struct{}

// WithHealth returns a context carrying the monitor.
func WithHealth(ctx context.Context, m *HealthMonitor) context.Context {
	return context.WithValue(ctx, healthKey{}, m)
}

// HealthFrom returns the context's monitor, or nil.
func HealthFrom(ctx context.Context) *HealthMonitor {
	m, _ := ctx.Value(healthKey{}).(*HealthMonitor)
	return m
}

// Summary renders the report as a short text block (the CLI -health
// output): one line per violation, a one-line verdict otherwise, then the
// stage-2 largest-term share when there is one.
func (r *HealthReport) Summary() string {
	if r == nil {
		return "health: not evaluated\n"
	}
	var b []byte
	if r.Healthy {
		b = appendf(b, "health: OK (%d checks)\n", r.Checks)
	} else {
		b = appendf(b, "health: %d violation(s) in %d checks\n", int64(len(r.Violations))+r.Suppressed, r.Checks)
		for _, v := range r.Violations {
			b = appendf(b, "  [%s] %s round %d: %s\n", v.Rule, v.Stage, v.Round, v.Detail)
		}
		if r.Suppressed > 0 {
			b = appendf(b, "  (+%d suppressed)\n", r.Suppressed)
		}
	}
	if r.MaxTermShare > 0 {
		b = appendf(b, "stage 2: the largest term carries %.1f%% of the estimate\n", 100*r.MaxTermShare)
	}
	return string(b)
}
