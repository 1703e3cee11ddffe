package service

import (
	"encoding/json"

	"ecripse/internal/obsv"
)

// tracePayload is the persisted/served form of a span timeline: the
// distributed trace ID plus the spans. Older journals hold the bare span
// array (pre-distributed-tracing format); decodeTrace accepts both.
type tracePayload struct {
	TraceID string          `json:"trace_id,omitempty"`
	Spans   []obsv.SpanView `json:"spans"`
}

// decodeTrace reads a trace payload in either the current object form or
// the legacy bare-array form.
func decodeTrace(raw json.RawMessage) (tracePayload, bool) {
	if len(raw) == 0 {
		return tracePayload{}, false
	}
	var tp tracePayload
	if err := json.Unmarshal(raw, &tp); err == nil && tp.Spans != nil {
		return tp, true
	}
	var spans []obsv.SpanView
	if err := json.Unmarshal(raw, &spans); err == nil && len(spans) > 0 {
		return tracePayload{Spans: spans}, true
	}
	return tracePayload{}, false
}

// pointTrace resolves the span timeline to graft under one sweep point. For
// a point the controller computed here, that is the job's own trace. For a
// point answered from the cache (including a resumed sweep whose original
// jobs completed before a crash), the cached job's trace holds only a
// cache-hit marker — so the original computing job's timeline, restored
// from its OpTrace journal record, is grafted instead and labeled with its
// source job ID.
func (s *Service) pointTrace(j *Job) (tracePayload, string, bool) {
	if !j.IsCached() {
		if tp, ok := decodeTrace(j.TracePayload()); ok {
			return tp, j.ID, true
		}
		return tracePayload{}, "", false
	}
	// The earliest done, non-cached job that computed the key holds the
	// real engine spans.
	if src, ok := s.jobs.find(func(o *Job) bool {
		return o.ID != j.ID && o.Key == j.Key && o.State() == StateDone && !o.IsCached()
	}); ok {
		if tp, ok := decodeTrace(src.TracePayload()); ok {
			return tp, src.ID, true
		}
	}
	if tp, ok := decodeTrace(j.TracePayload()); ok {
		return tp, j.ID, true
	}
	return tracePayload{}, "", false
}

// AssembleSweepTrace builds the sweep's reassembled distributed trace: the
// controller's own spans (root sweep span, one `point` span per grid point)
// with every point job's timeline grafted under its point span — offsetting
// intra-job parent indices and re-rooting the job's root spans onto the
// point span. Returns the sweep's trace ID and the combined span list. A
// recovered sweep reassembles from its persisted spans the same way.
func (s *Service) AssembleSweepTrace(sw *Sweep) (string, []obsv.SpanView) {
	tp, ok := decodeTrace(sw.TracePayload())
	if !ok {
		tp.TraceID = sw.trace.ID() // no spans yet (or a sweep journaled before traces were)
	}
	out := append([]obsv.SpanView(nil), tp.Spans...)
	for idx, v := range tp.Spans {
		if v.Name != "point" {
			continue
		}
		jobID, _ := v.Attrs["job"].(string)
		if jobID == "" {
			continue
		}
		j, err := s.Get(jobID)
		if err != nil {
			continue
		}
		tp, srcID, ok := s.pointTrace(j)
		if !ok {
			continue
		}
		off := len(out)
		for _, sp := range tp.Spans {
			if sp.Parent >= 0 {
				sp.Parent += off
			} else {
				sp.Parent = idx
				if srcID != jobID {
					// The engine spans came from another job's run (cache
					// hit / recovered journal); name the source.
					attrs := make(map[string]any, len(sp.Attrs)+1)
					for k, av := range sp.Attrs {
						attrs[k] = av
					}
					attrs["source_job"] = srcID
					sp.Attrs = attrs
				}
			}
			out = append(out, sp)
		}
	}
	return tp.TraceID, out
}
