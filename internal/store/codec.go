package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"
)

// Op enumerates the journal record types.
type Op string

const (
	// OpSubmit introduces a job: id, normalized spec, content key, and
	// whether the submission was answered inline from the cache.
	OpSubmit Op = "submit"
	// OpState records a lifecycle transition of a previously submitted job.
	OpState Op = "state"
	// OpResult stores a completed result payload under its content key.
	OpResult Op = "result"
	// OpDrop voids a submit whose enqueue was refused (queue full).
	OpDrop Op = "drop"
	// OpTrace attaches a finished job's or sweep's span timeline, keyed by
	// its ID (wall-clock data, never content-addressed); it replaces on
	// re-run.
	OpTrace Op = "trace"
	// OpTenant snapshots a tenant's accumulated usage (jobs, sims); the
	// latest record per tenant wins on replay, so quota accounting survives
	// restarts.
	OpTenant Op = "tenant"
	// OpOwner records a dispatched job's current shard placement (cluster
	// routers only); the latest record per job wins, so a failover
	// re-assignment replaces the original dispatch.
	OpOwner Op = "owner"
	// OpSweep introduces a sweep: id (in Job), normalized SweepSpec, content
	// key and tenant. Older binaries replay it as an unknown op — warned
	// about and ignored, never fatal.
	OpSweep Op = "sweep"
	// OpSweepState records a sweep lifecycle transition; terminal records
	// carry the sweep's payload in Result — the aggregate of a done sweep,
	// the per-point status of a failed or canceled one (journal state keyed
	// by sweep ID, not content-addressed).
	OpSweepState Op = "sweep_state"
)

// Record is one journal entry. Seq is assigned by the store and is strictly
// increasing across segments; replay applies records in seq order and skips
// anything at or below the snapshot's horizon.
type Record struct {
	Seq    uint64          `json:"seq"`
	Op     Op              `json:"op"`
	Job    string          `json:"job,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Key    string          `json:"key,omitempty"`
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Trace  json.RawMessage `json:"trace,omitempty"`
	// Tenant names the submitting client on OpSubmit records and the
	// accounted tenant on OpTenant records; Jobs/Sims are the OpTenant
	// usage snapshot.
	Tenant string `json:"tenant,omitempty"`
	Jobs   int64  `json:"jobs,omitempty"`
	Sims   int64  `json:"sims,omitempty"`
	// Shard and Remote are the OpOwner placement: the owning node and the
	// job's ID on it.
	Shard  string    `json:"shard,omitempty"`
	Remote string    `json:"remote,omitempty"`
	At     time.Time `json:"at"`
}

// Records are framed as [payload length u32le][crc32c(payload) u32le][payload].
// The length header lets the reader detect a torn tail (fewer bytes on disk
// than the header promises); the checksum catches bit rot and partial
// overwrites inside the payload.
const (
	frameHeader = 8
	// maxRecordBytes bounds one payload; a larger length header is treated
	// as corruption, not as an allocation request.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame renders the record as one framed journal entry.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record %d: %w", rec.Seq, err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// decodeFrame reads the first frame of b. It returns the decoded record and
// the remaining bytes, or ok=false with a reason when the bytes are a torn
// or corrupt frame — the caller truncates the segment there.
func decodeFrame(b []byte) (rec *Record, rest []byte, reason string, ok bool) {
	if len(b) < frameHeader {
		return nil, b, fmt.Sprintf("torn header (%d trailing bytes)", len(b)), false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxRecordBytes {
		return nil, b, fmt.Sprintf("implausible record length %d", n), false
	}
	if uint64(len(b)) < frameHeader+uint64(n) {
		return nil, b, fmt.Sprintf("torn record (%d of %d payload bytes)", len(b)-frameHeader, n), false
	}
	payload := b[frameHeader : frameHeader+n]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return nil, b, fmt.Sprintf("checksum mismatch (%08x != %08x)", got, want), false
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, b, "undecodable payload: " + err.Error(), false
	}
	return &r, b[frameHeader+n:], "", true
}
