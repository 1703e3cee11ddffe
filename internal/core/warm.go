package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"ecripse/internal/linalg"
	"ecripse/internal/sram"
	"ecripse/internal/svm"
)

// WarmState is the portable cross-point warm-start snapshot of an engine: the
// stage-1 starting particle cloud, the classifier trust radius, and the
// trained blockade classifier serialized via svm's Save/Load model format. It
// is what a sweep planner carries from one grid point to its neighbor so the
// next point skips boundary search and classifier warm-up entirely. The
// whole struct round-trips through JSON bit-exactly (Go's float64 encoding is
// shortest-round-trip), so a warm-started run is a deterministic function of
// (spec, predecessor result) — the property that lets warm results be
// content-cached.
type WarmState struct {
	// Cloud is the ensemble's stage-1 starting cloud in the normalized
	// space, in Ensemble.Particles() order (filters concatenated). It is the
	// grouped boundary initialization — NOT the post-iteration cloud, whose
	// resampling-collapsed diversity would bias chained importance proposals
	// low — so it passes through a warm chain unchanged, exactly like the
	// shared initialization of the paper's Fig. 7(b).
	Cloud []linalg.Vector `json:"cloud"`
	// TrustR is the classifier trust radius that accompanied the classifier.
	TrustR float64 `json:"trust_r,omitempty"`
	// Classifier is the svm model document (empty when the exporting engine
	// ran with NoClassifier, or when the importer should label everything
	// with the true simulator).
	Classifier json.RawMessage `json:"classifier,omitempty"`
}

// Warm exports the engine's warm-start state. It errors before the first
// completed Run (there is no starting cloud captured yet). The classifier,
// when present, includes every online update made during the run — the
// importing engine continues training from where this one stopped.
func (e *Engine) Warm() (*WarmState, error) {
	if len(e.startCloud) == 0 {
		return nil, errors.New("core: no particle cloud to export (complete a run first)")
	}
	ws := &WarmState{TrustR: e.trustR, Cloud: make([]linalg.Vector, len(e.startCloud))}
	for i, p := range e.startCloud {
		ws.Cloud[i] = p.Clone()
	}
	if e.classifier != nil {
		var buf bytes.Buffer
		if err := e.classifier.Save(&buf); err != nil {
			return nil, fmt.Errorf("core: serialize classifier: %w", err)
		}
		ws.Classifier = buf.Bytes()
	}
	return ws, nil
}

// SeedWarm installs a neighbor point's warm state: the cloud becomes the
// initial particle set (so InitCtx skips boundary search AND classifier
// warm-up — the amortization the paper demonstrates in Fig. 7(b)), the
// stage-1 ensemble is rebuilt from the cloud with the original per-filter
// grouping via pfilter.Warm, and the classifier (when carried) resumes with
// its trained weights and trust radius. A WarmState without a classifier
// seeds the cloud only; every label is then answered by the true simulator,
// which stays unbiased at the cost of the classifier savings — the right
// trade when the neighbor ran at a different operating point (Vdd/TempK) and
// its classifier would mislabel this cell.
//
// SeedWarm must be called before the first Init/Run and errors on an already
// initialized engine. Warm seeding changes the engine's randomness
// consumption versus a cold run, so warm results are distinct deterministic
// outcomes: callers that content-address results must include the warm
// linkage in the cache key.
func (e *Engine) SeedWarm(ws *WarmState) error {
	if ws == nil || len(ws.Cloud) == 0 {
		return errors.New("core: empty warm state")
	}
	if e.initial != nil {
		return errors.New("core: engine already initialized; seed warm state before the first run")
	}
	for i, p := range ws.Cloud {
		if len(p) != sram.NumTransistors {
			return fmt.Errorf("core: warm cloud point %d has dimension %d, want %d", i, len(p), sram.NumTransistors)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: warm cloud point %d is not finite", i)
			}
		}
	}
	if len(ws.Classifier) > 0 && !e.Opts.NoClassifier {
		cls, err := svm.Load(bytes.NewReader(ws.Classifier))
		if err != nil {
			return fmt.Errorf("core: load warm classifier: %w", err)
		}
		e.classifier = cls
		e.trustR = ws.TrustR
	}
	if e.trustR <= 0 || math.IsNaN(e.trustR) || math.IsInf(e.trustR, 0) {
		// Same rule InitCtx uses: trust slightly beyond the farthest particle.
		r := 0.0
		for _, p := range ws.Cloud {
			if n := p.Norm(); n > r {
				r = n
			}
		}
		e.trustR = 1.1 * r
	}
	e.initial = make([]linalg.Vector, len(ws.Cloud))
	for i, p := range ws.Cloud {
		e.initial[i] = p.Clone()
	}
	e.warmed = true
	return nil
}

// Warmed reports whether the engine was seeded via SeedWarm.
func (e *Engine) Warmed() bool { return e.warmed }
