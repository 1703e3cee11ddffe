package sram

import (
	"sync/atomic"
)

// SolveTelemetry accumulates root-solver effort counters. The estimators'
// cost model counts indicator calls; these counters expose what one
// indicator call costs underneath — how many half-cell root solves ran and
// how many KCL residual evaluations (three Ids calls each) they needed,
// every evaluation billed. Counters are plain sums of integers, so
// they are deterministic at any parallelism level.
//
// A *SolveTelemetry can be attached to VTCOptions/SNMOptions; the sweep
// routines accumulate locally and add once per curve, so the atomics stay
// off the inner loop.
type SolveTelemetry struct {
	Solves atomic.Int64 // half-cell root solves
	Iters  atomic.Int64 // residual evaluations across those solves

	// Lane-utilization counters, filled only by the batch solver: every
	// lockstep residual-evaluation round bills LaneSlots with the batch
	// width and LaneOccupied with the lanes actually evaluated, so
	// LaneOccupied/LaneSlots is the fraction of kernel work that was live
	// (converged lanes ride along masked out until their batch drains).
	// Both are exact integer tallies over a fixed chunking of the sample
	// stream, hence deterministic at any parallelism level.
	LaneSlots    atomic.Int64
	LaneOccupied atomic.Int64
}

// add folds a local tally into the telemetry (nil-safe).
func (t *SolveTelemetry) add(solves, iters int64) {
	if t == nil {
		return
	}
	t.Solves.Add(solves)
	t.Iters.Add(iters)
}

// addLanes folds a batch sweep's lane-occupancy tally in (nil-safe).
func (t *SolveTelemetry) addLanes(slots, occupied int64) {
	if t == nil {
		return
	}
	t.LaneSlots.Add(slots)
	t.LaneOccupied.Add(occupied)
}

// Merge folds another telemetry's counters into t (nil-safe on t). The
// engine's lockstep margin sweep points each worker at a padded private
// tally and merges them here once per barrier, so the shared counters are
// touched a bounded number of times per batch instead of per curve.
func (t *SolveTelemetry) Merge(from *SolveTelemetry) {
	if t == nil || from == nil {
		return
	}
	t.add(from.Solves.Load(), from.Iters.Load())
	t.addLanes(from.LaneSlots.Load(), from.LaneOccupied.Load())
}

// Reset zeroes the counters (for reusing a local tally across barriers).
func (t *SolveTelemetry) Reset() {
	t.Solves.Store(0)
	t.Iters.Store(0)
	t.LaneSlots.Store(0)
	t.LaneOccupied.Store(0)
}

// Totals reads the accumulated counters.
func (t *SolveTelemetry) Totals() (solves, iters int64) {
	return t.Solves.Load(), t.Iters.Load()
}

// LaneTotals reads the batch-path lane-occupancy counters.
func (t *SolveTelemetry) LaneTotals() (slots, occupied int64) {
	return t.LaneSlots.Load(), t.LaneOccupied.Load()
}

// totalTelemetry is the process-wide tally behind TotalSolveTelemetry.
var totalTelemetry SolveTelemetry

// TotalSolveTelemetry reports the process-wide root-solve and iteration
// totals since start — the figures the service's /metrics endpoint exposes.
func TotalSolveTelemetry() (solves, iters int64) {
	return totalTelemetry.Solves.Load(), totalTelemetry.Iters.Load()
}

// TotalLaneTelemetry reports the process-wide batch-kernel lane-occupancy
// totals since start (zero when only the scalar path has run).
func TotalLaneTelemetry() (slots, occupied int64) {
	return totalTelemetry.LaneSlots.Load(), totalTelemetry.LaneOccupied.Load()
}

// SolveObserver receives per-curve solver tallies: v is the mean number of
// residual evaluations per root solve over the curve, n the number of solves. The
// service registers its root-solve-iterations histogram here; ObserveN on an
// atomic-bucket histogram satisfies the signature directly.
type SolveObserver interface {
	ObserveN(v float64, n int64)
}

// solveObserver is the registered observer, read with one atomic load per
// curve — nil (the default) costs a pointer load and a branch.
var solveObserver atomic.Pointer[SolveObserver]

// RegisterSolveObserver installs obs as the process-wide solver observer
// (nil unregisters). Later registrations replace earlier ones.
func RegisterSolveObserver(obs SolveObserver) {
	if obs == nil {
		solveObserver.Store(nil)
		return
	}
	solveObserver.Store(&obs)
}

// recordGlobal folds a per-curve tally into the process-wide counters and
// the registered observer, if any. Called once per curve/solve batch, never
// from the solver inner loop.
func recordGlobal(solves, iters int64) {
	totalTelemetry.add(solves, iters)
	if p := solveObserver.Load(); p != nil && solves > 0 {
		(*p).ObserveN(float64(iters)/float64(solves), solves)
	}
}

// recordGlobalLanes folds a batch sweep's lane-occupancy tally into the
// process-wide counters. Called once per batched curve sweep.
func recordGlobalLanes(slots, occupied int64) {
	totalTelemetry.addLanes(slots, occupied)
}
