package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ecripse/internal/service"
)

// entryState is the store's mirror of one job or sweep, as of the last
// applied record. Cached applies to jobs; Result, the terminal payload,
// to sweeps. Trace is absent in older snapshots (same version).
type entryState struct {
	ID       string          `json:"id"`
	Spec     json.RawMessage `json:"spec"`
	Key      string          `json:"key"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Tenant   string          `json:"tenant,omitempty"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result,omitempty"`
	Trace    json.RawMessage `json:"trace,omitempty"`
}

func (e *entryState) recovered() service.Recovered {
	return service.Recovered{
		ID: e.ID, Spec: e.Spec, Key: e.Key, State: service.State(e.State), Error: e.Error, Tenant: e.Tenant,
		Created: e.Created, Started: e.Started, Finished: e.Finished, Trace: e.Trace,
	}
}

// submit appends a newly introduced entry to a kind's mirror. A duplicate
// ID keeps the first.
func submit(list []*entryState, index map[string]*entryState, rec *Record, logf func(string, ...any)) []*entryState {
	if _, dup := index[rec.Job]; dup {
		logf("store: replay: duplicate %s for %s (seq %d), keeping the first", rec.Op, rec.Job, rec.Seq)
		return list
	}
	e := &entryState{
		ID:      rec.Job,
		Spec:    rec.Spec,
		Key:     rec.Key,
		State:   string(service.StateQueued),
		Cached:  rec.Cached,
		Tenant:  rec.Tenant,
		Created: rec.At,
	}
	index[rec.Job] = e
	return append(list, e)
}

// transition folds a lifecycle transition into a known entry; terminal
// records carry the entry's terminal payload.
func transition(e *entryState, rec *Record, logf func(string, ...any)) {
	if e == nil {
		logf("store: replay: %s %q for unknown %s (seq %d), ignoring", rec.Op, rec.State, rec.Job, rec.Seq)
		return
	}
	e.State = rec.State
	e.Error = rec.Error
	switch {
	case rec.State == string(service.StateRunning):
		e.Started = rec.At
	case service.State(rec.State).Terminal():
		e.Finished = rec.At
		e.Result = rec.Result
	}
}

// memState is the materialized journal: what a replay of every record up to
// LastSeq produces. The store maintains it incrementally on each append so
// that a snapshot is a plain marshal, and recovery hands it to the service.
type memState struct {
	Version int                        `json:"version"`
	LastSeq uint64                     `json:"last_seq"`
	Jobs    []*entryState              `json:"jobs"` // submission order
	Results map[string]json.RawMessage `json:"results"`
	// Tenants is the latest usage snapshot per tenant; Owners the latest
	// shard placement per dispatched job (cluster routers); Sweeps every
	// known sweep in submission order. All absent in older snapshots (same
	// version — additive fields).
	Tenants map[string]service.TenantUsage `json:"tenants,omitempty"`
	Owners  map[string]service.OwnerRecord `json:"owners,omitempty"`
	Sweeps  []*entryState                  `json:"sweeps,omitempty"`

	index      map[string]*entryState // job id → entry; rebuilt after load
	sweepIndex map[string]*entryState // sweep id → entry; rebuilt after load
}

const snapshotVersion = 1

func newMemState() *memState {
	return &memState{Version: snapshotVersion, Results: make(map[string]json.RawMessage)}
}

func (m *memState) reindex() {
	m.index = make(map[string]*entryState, len(m.Jobs))
	for _, js := range m.Jobs {
		m.index[js.ID] = js
	}
	m.sweepIndex = make(map[string]*entryState, len(m.Sweeps))
	for _, ss := range m.Sweeps {
		m.sweepIndex[ss.ID] = ss
	}
	if m.Results == nil {
		m.Results = make(map[string]json.RawMessage)
	}
}

// apply folds one record into the mirror. Unknown jobs and duplicate
// submits are warned about and tolerated: replay must never refuse a boot.
func (m *memState) apply(rec *Record, logf func(string, ...any)) {
	switch rec.Op {
	case OpSubmit:
		m.Jobs = submit(m.Jobs, m.index, rec, logf)
	case OpState:
		transition(m.index[rec.Job], rec, logf)
	case OpResult:
		m.Results[rec.Key] = rec.Result
	case OpTrace:
		if js, ok := m.index[rec.Job]; ok {
			js.Trace = rec.Trace
		} else if ss, ok := m.sweepIndex[rec.Job]; ok {
			ss.Trace = rec.Trace
		} else {
			logf("store: replay: trace for unknown job or sweep %s (seq %d), ignoring", rec.Job, rec.Seq)
		}
	case OpTenant:
		if m.Tenants == nil {
			m.Tenants = make(map[string]service.TenantUsage)
		}
		m.Tenants[rec.Tenant] = service.TenantUsage{Jobs: rec.Jobs, Sims: rec.Sims}
	case OpOwner:
		if m.Owners == nil {
			m.Owners = make(map[string]service.OwnerRecord)
		}
		m.Owners[rec.Job] = service.OwnerRecord{Shard: rec.Shard, Remote: rec.Remote}
	case OpSweep:
		m.Sweeps = submit(m.Sweeps, m.sweepIndex, rec, logf)
	case OpSweepState:
		transition(m.sweepIndex[rec.Job], rec, logf)
	case OpDrop:
		if js, ok := m.index[rec.Job]; ok {
			delete(m.index, rec.Job)
			for i, o := range m.Jobs {
				if o == js {
					m.Jobs = append(m.Jobs[:i], m.Jobs[i+1:]...)
					break
				}
			}
		}
	default:
		logf("store: replay: unknown op %q (seq %d), ignoring", rec.Op, rec.Seq)
	}
	if rec.Seq > m.LastSeq {
		m.LastSeq = rec.Seq
	}
}

// recovery converts the mirror into the service's boot-time view.
func (m *memState) recovery() *service.Recovery {
	rec := &service.Recovery{Results: make(map[string]json.RawMessage, len(m.Results))}
	for k, v := range m.Results {
		rec.Results[k] = v
	}
	for _, e := range m.Jobs {
		rec.Jobs = append(rec.Jobs, service.RecoveredJob{Recovered: e.recovered(), Cached: e.Cached})
	}
	for _, e := range m.Sweeps {
		rec.Sweeps = append(rec.Sweeps, service.RecoveredSweep{Recovered: e.recovered(), Result: e.Result})
	}
	if len(m.Tenants) > 0 {
		rec.Tenants = make(map[string]service.TenantUsage, len(m.Tenants))
		for k, v := range m.Tenants {
			rec.Tenants[k] = v
		}
	}
	if len(m.Owners) > 0 {
		rec.Owners = make(map[string]service.OwnerRecord, len(m.Owners))
		for k, v := range m.Owners {
			rec.Owners[k] = v
		}
	}
	return rec
}

// writeSnapshot persists the mirror atomically: marshal to a temp file,
// fsync, rename into place, fsync the directory.
func writeSnapshot(dir string, m *memState) (string, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("store: marshal snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "snapshot-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapName(m.LastSeq))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, syncDir(dir)
}

// loadSnapshot reads one snapshot file back into a mirror.
func loadSnapshot(path string) (*memState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := newMemState()
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("store: decode snapshot %s: %w", filepath.Base(path), err)
	}
	if m.Version != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot %s has version %d, want %d", filepath.Base(path), m.Version, snapshotVersion)
	}
	m.reindex()
	return m, nil
}
