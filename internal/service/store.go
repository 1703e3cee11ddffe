package service

import (
	"encoding/json"
	"time"
)

// Store persists job lifecycle events and completed results so that a
// service restart can rebuild its state. The service appends one record per
// observable event; the store is expected to make each append durable (or
// at least ordered) and to hand the accumulated state back through Recover.
//
// Append ordering matters for crash consistency and the service guarantees
// it per job: the submit record precedes every state record, a completed
// job's trace precedes its result record, which precedes its done record,
// and states follow the job lifecycle. Across jobs no ordering is promised.
//
// The zero-configuration default is the process-memory nopStore: every
// append succeeds without touching disk and Recover finds nothing, which is
// exactly the pre-persistence behavior.
type Store interface {
	// Recover returns the state accumulated before this process started.
	// The service calls it exactly once, before its workers see any job.
	Recover() *Recovery
	// AppendSubmit records a newly accepted job. cached marks a submission
	// answered inline from the result cache (it is born terminal); tenant
	// names the submitting API client ("" when auth is off).
	AppendSubmit(id string, spec json.RawMessage, key, tenant string, cached bool, at time.Time) error
	// AppendState records a lifecycle transition of a known job.
	AppendState(id string, state State, errMsg string, at time.Time) error
	// AppendResult records a completed, cacheable result payload under the
	// spec's content address. It is appended before the job's done record,
	// so a crash between the two replays the job as still running, answered
	// from the restored cache with the trace journaled ahead of the result.
	AppendResult(key string, payload json.RawMessage) error
	// AppendDrop voids a submit record whose enqueue failed (queue full):
	// replay must not resurrect the job.
	AppendDrop(id string) error
	// AppendTrace records a finished job's or sweep's span timeline (the
	// marshaled obsv span views), keyed by its ID. Unlike results, traces are
	// never content-addressed: wall-clock timings are not deterministic.
	AppendTrace(id string, trace json.RawMessage) error
	// AppendTenant records a tenant's accumulated usage (latest snapshot
	// wins on replay), so quota accounting survives restarts.
	AppendTenant(name string, u TenantUsage) error
	// AppendOwner records which shard a dispatched job currently lives on
	// (the cluster router's ownership table; remote is the job's ID on that
	// shard). Re-appends update the assignment — the failover path moves a
	// dead shard's jobs to their ring successor.
	AppendOwner(id, shard, remote string) error
	// AppendSweep records a newly accepted sweep: id, the normalized
	// SweepSpec, its content key, and the submitting tenant.
	AppendSweep(id string, spec json.RawMessage, key, tenant string, at time.Time) error
	// AppendSweepState records a sweep lifecycle transition. Terminal
	// records carry the sweep's payload: the aggregate of a done sweep, the
	// per-point status of a failed or canceled one. Both embed
	// nondeterministic job IDs, so they live in the journal keyed by sweep,
	// never in the content-addressed result set.
	AppendSweepState(id string, state State, errMsg string, result json.RawMessage, at time.Time) error
	// Stats reports persistence counters for /metrics; a store without
	// durability returns the zero value.
	Stats() StoreStats
	// Close releases the store. Appends after Close fail.
	Close() error
}

// Recovery is the state a Store rebuilt from disk: every job it knew about
// in submission order, the completed result payloads keyed by spec content
// address, per-tenant usage, and — for the cluster router — the shard
// ownership table.
type Recovery struct {
	Jobs    []RecoveredJob
	Results map[string]json.RawMessage
	// Sweeps is every persisted sweep in submission order. Terminal sweeps
	// restore with their aggregate; interrupted ones restart their
	// controllers, re-answering completed points from Results.
	Sweeps []RecoveredSweep
	// Tenants is the last persisted usage per tenant name (may be nil).
	Tenants map[string]TenantUsage
	// Owners is the last persisted shard assignment per dispatched job ID
	// (may be nil; populated only by cluster routers).
	Owners map[string]OwnerRecord
}

// OwnerRecord is one dispatched job's current placement.
type OwnerRecord struct {
	// Shard is the owning node's name.
	Shard string `json:"shard"`
	// Remote is the job's ID on that shard (differs from the dispatch ID
	// after a failover re-enqueue).
	Remote string `json:"remote"`
}

// Recovered is the lifecycle record of one persisted job or sweep as of
// the last durable record.
type Recovered struct {
	ID       string
	Spec     json.RawMessage
	Key      string
	State    State
	Error    string
	Tenant   string
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Trace is the persisted span timeline of a finished job or sweep (nil
	// when it never finished or predates trace persistence).
	Trace json.RawMessage
}

// RecoveredJob is one persisted job. Jobs that were queued or running at
// crash time are re-enqueued by the service (specs and seeds are
// deterministic, so a re-run reproduces the lost work); terminal jobs are
// restored as-is, with done results re-attached from Recovery.Results.
type RecoveredJob struct {
	Recovered
	Cached bool
}

// RecoveredSweep is one persisted sweep.
type RecoveredSweep struct {
	Recovered
	// Result is the terminal payload: the aggregate of a done sweep, the
	// per-point status of a failed or canceled one (nil while running, and
	// for failed or canceled sweeps journaled before it was recorded).
	Result json.RawMessage
}

// StoreStats are the persistence counters surfaced at /metrics.
type StoreStats struct {
	// Appends counts journal records written since the process started.
	Appends int64 `json:"appends"`
	// Compactions counts snapshot compactions since the process started.
	Compactions int64 `json:"compactions"`
	// SegmentBytes is the size of the live journal segment.
	SegmentBytes int64 `json:"segment_bytes"`
	// AppendErrors counts appends that failed (the service keeps serving;
	// durability of those events is lost).
	AppendErrors int64 `json:"append_errors,omitempty"`
}

// nopStore is the in-memory default: no persistence, nothing to recover.
type nopStore struct{}

func (nopStore) Recover() *Recovery { return &Recovery{} }
func (nopStore) AppendSubmit(string, json.RawMessage, string, string, bool, time.Time) error {
	return nil
}
func (nopStore) AppendState(string, State, string, time.Time) error                   { return nil }
func (nopStore) AppendResult(string, json.RawMessage) error                           { return nil }
func (nopStore) AppendDrop(string) error                                              { return nil }
func (nopStore) AppendTrace(string, json.RawMessage) error                            { return nil }
func (nopStore) AppendTenant(string, TenantUsage) error                               { return nil }
func (nopStore) AppendOwner(string, string, string) error                             { return nil }
func (nopStore) AppendSweep(string, json.RawMessage, string, string, time.Time) error { return nil }
func (nopStore) AppendSweepState(string, State, string, json.RawMessage, time.Time) error {
	return nil
}
func (nopStore) Stats() StoreStats { return StoreStats{} }
func (nopStore) Close() error      { return nil }
