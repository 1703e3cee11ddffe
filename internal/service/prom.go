package service

import (
	"io"
	"sort"

	"ecripse/internal/obsv"
)

// WritePrometheus renders the metrics snapshot plus the service histograms in
// the Prometheus text exposition format (version 0.0.4). Counters here mirror
// the JSON snapshot — both read the same underlying state, so scraping either
// endpoint tells the same story.
func (s *Service) WritePrometheus(w io.Writer) error {
	m := s.Snapshot()
	p := obsv.NewPromWriter(w)

	p.Gauge("ecripsed_build_info",
		"Build identity of the serving binary (value is always 1).", 1,
		[2]string{"go_version", m.Build.GoVersion},
		[2]string{"revision", m.Build.Revision})
	p.Gauge("ecripsed_uptime_seconds",
		"Seconds since the service started.", m.UptimeSeconds)

	for _, st := range []State{StateQueued, StateRunning, StateDone, StateCanceled, StateFailed} {
		p.Gauge("ecripsed_jobs",
			"Jobs currently known to the service, by lifecycle state.",
			float64(m.Jobs[st]), [2]string{"state", string(st)})
	}
	p.Gauge("ecripsed_queue_depth", "Jobs waiting in the queue.", float64(m.QueueDepth))
	p.Gauge("ecripsed_queue_capacity", "Capacity of the job queue.", float64(m.QueueCapacity))
	p.Gauge("ecripsed_workers", "Size of the worker pool.", float64(m.Workers))
	p.Gauge("ecripsed_workers_busy", "Workers currently executing a job.", float64(m.WorkersBusy))
	p.Gauge("ecripsed_draining", "1 while the service is draining, else 0.", boolGauge(m.Draining))

	p.Counter("ecripsed_cache_hits_total", "Result-cache hits.", float64(m.CacheHits))
	p.Counter("ecripsed_cache_misses_total", "Result-cache misses.", float64(m.CacheMisses))
	p.Gauge("ecripsed_cache_size", "Entries in the result cache.", float64(m.CacheSize))
	p.Counter("ecripsed_cache_evictions_total", "Result-cache evictions.", float64(m.CacheEvictions))
	p.Counter("ecripsed_cache_evicted_cost_total",
		"Total simulation cost of evicted cache entries.", float64(m.CacheEvictedCost))
	p.Counter("ecripsed_remote_cache_hits_total",
		"Submits answered from a peer shard's result cache.", float64(m.RemoteCacheHits))

	if len(m.Tenants) > 0 {
		names := make([]string, 0, len(m.Tenants))
		for name := range m.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tv := m.Tenants[name]
			p.Counter("ecripsed_tenant_jobs_total",
				"Submits accepted per tenant.", float64(tv.Jobs), [2]string{"tenant", name})
			p.Counter("ecripsed_tenant_sims_total",
				"Simulations attributed to finished jobs per tenant.", float64(tv.Sims), [2]string{"tenant", name})
			p.Counter("ecripsed_tenant_rejected_total",
				"Submits rejected by rate limit or quota per tenant.", float64(tv.Rejected), [2]string{"tenant", name})
		}
	}

	if len(m.Sweeps) > 0 {
		for _, st := range []State{StateQueued, StateRunning, StateDone, StateCanceled, StateFailed} {
			p.Gauge("ecripsed_sweeps",
				"Sweeps currently known to the service, by lifecycle state.",
				float64(m.Sweeps[st]), [2]string{"state", string(st)})
		}
	}
	p.Counter("ecripsed_sweep_points_done_total",
		"Sweep grid points driven to completion.", float64(m.SweepPointsDone))
	p.Counter("ecripsed_sweep_warm_points_total",
		"Sweep points seeded from their predecessor's warm state.", float64(m.SweepWarmPoints))
	p.Counter("ecripsed_sweep_sims_saved_total",
		"Estimated simulations avoided by sweep warm starts.", float64(m.SweepSimsSaved))

	if len(m.HealthViolations) > 0 {
		rules := make([]string, 0, len(m.HealthViolations))
		for rule := range m.HealthViolations {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			p.Counter("ecripsed_health_violations_total",
				"Statistical-health watchdog violations, by rule.",
				float64(m.HealthViolations[rule]), [2]string{"rule", rule})
		}
	}

	p.Counter("ecripsed_sims_total",
		"Transistor-level simulations consumed across all known jobs.", float64(m.SimsTotal))
	p.Counter("ecripsed_solver_root_solves_total",
		"Half-cell root solves, process-wide.", float64(m.SolverRootSolves))
	p.Counter("ecripsed_solver_iterations_total",
		"Residual evaluations spent in root solves, process-wide.", float64(m.SolverIters))
	p.Counter("ecripsed_batch_lane_slots_total",
		"Lockstep kernel slots issued by the batched indicator, process-wide.", float64(m.LaneSlots))
	p.Counter("ecripsed_batch_lanes_occupied_total",
		"Lockstep kernel slots that carried a live lane, process-wide.", float64(m.LaneOccupied))
	p.Counter("ecripsed_pipeline_batches_total",
		"Barrier windows completed by the pipelined stage-2 driver, process-wide.", float64(m.PipelineBatches))
	p.Counter("ecripsed_pipeline_gen_seconds_total",
		"Wall-clock seconds spent generating next-batch draws in the pipelined driver.", float64(m.PipelineGenSeconds))
	p.Counter("ecripsed_pipeline_stall_seconds_total",
		"Wall-clock seconds barriers stalled waiting on an unfinished generation.", float64(m.PipelineStallSeconds))
	p.Counter("ecripsed_pipeline_settle_seconds_total",
		"Wall-clock seconds spent settling barriers in the pipelined driver.", float64(m.PipelineSettleSeconds))
	p.Gauge("ecripsed_pipeline_overlap_frac",
		"Share of generation wall-clock hidden behind barrier settlement.", m.PipelineOverlapFrac)

	if m.Store != nil {
		p.Counter("ecripsed_store_appends_total", "Journal records appended.", float64(m.Store.Appends))
		p.Counter("ecripsed_store_compactions_total", "Snapshot compactions.", float64(m.Store.Compactions))
		p.Gauge("ecripsed_store_segment_bytes", "Size of the live journal segment.", float64(m.Store.SegmentBytes))
		p.Counter("ecripsed_store_append_errors_total", "Journal appends that failed.", float64(m.Store.AppendErrors))
	}

	p.Histogram(s.tel.jobDuration)
	p.Histogram(s.tel.queueWait)
	p.Histogram(s.tel.indicator)
	p.Histogram(s.tel.rootIters)
	return p.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
