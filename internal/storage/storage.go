// Package storage implements the embedded persistence substrate of the
// BPMS: a segmented, CRC-checked, append-only journal (write-ahead
// log), a snapshot store with atomic replace, and the two journals of a
// system run without a data directory: a packed in-memory journal that
// keeps the audit trail (and serves tests and benchmarks), and a discard
// journal that only numbers the engine's state records. The engine is
// event-sourced on top of this package: every state change is an
// appended record, recovery replays the journal (from the latest
// snapshot when present).
//
// Durability contract: Append returns after the record is in the OS
// page cache; Sync (or the SyncEvery/SyncAlways/SyncBatch policies)
// forces it to stable storage. AppendDurable returns only after the
// record is on stable storage — under SyncBatch, concurrent callers
// are group-committed behind a single fsync. Records are
// length-prefixed and CRC-protected, and a torn tail (partial final
// record after a crash) is detected and truncated on open.
package storage

import (
	"errors"
	"fmt"
	"time"

	"bpms/internal/fault"
	"bpms/internal/obs"
)

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("storage: journal closed")

// ErrCorrupt is returned when a record fails its integrity check in a
// context where truncation is not permitted (e.g. mid-log corruption).
var ErrCorrupt = errors.New("storage: corrupt record")

// Journal is an append-only, replayable record log. Indices are
// contiguous and start at 1. Implementations are safe for concurrent
// use.
type Journal interface {
	// Append adds a record and returns its index.
	Append(payload []byte) (uint64, error)
	// AppendDurable adds a record and blocks until it is on stable
	// storage. Under SyncBatch, concurrent callers are coalesced into
	// one group commit (a single write+fsync acknowledges the whole
	// batch); under other policies the append is followed by a sync
	// where needed.
	AppendDurable(payload []byte) (uint64, error)
	// Replay streams records with index >= from, in order. The
	// callback's payload is only valid for the duration of the call.
	Replay(from uint64, fn func(index uint64, payload []byte) error) error
	// LastIndex returns the index of the newest record (0 when empty).
	LastIndex() uint64
	// FirstIndex returns the index of the oldest retained record
	// (0 when empty); earlier records may have been compacted away.
	FirstIndex() uint64
	// DropBefore discards records with index < upTo where possible
	// (whole segments only for file journals). Used after snapshots.
	DropBefore(upTo uint64) error
	// Sync forces buffered records to stable storage.
	Sync() error
	// SyncedIndex returns the index of the newest record known to be
	// on stable storage (0 when nothing is durable yet). For in-memory
	// journals this equals LastIndex.
	SyncedIndex() uint64
	// Close releases resources. The journal must not be used after.
	Close() error
}

// SyncPolicy selects when a file journal forces data to disk.
type SyncPolicy int

// Sync policies.
const (
	// SyncNever leaves flushing to the OS (fastest, weakest).
	SyncNever SyncPolicy = iota
	// SyncAlways fsyncs after every append (slowest, strongest).
	SyncAlways
	// SyncEvery fsyncs after every N appends.
	SyncEvery
	// SyncBatch group-commits: a dedicated committer goroutine
	// coalesces concurrent appends into one write+fsync and wakes all
	// AppendDurable waiters once their records are durable. Plain
	// Appends are synced within BatchMaxDelay or after BatchMaxRecords
	// unsynced appends, whichever comes first.
	SyncBatch
)

// String names the policy (flag value form).
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	case SyncEvery:
		return "every"
	case SyncBatch:
		return "batch"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSyncPolicy parses a policy name as accepted by bpmsd's -sync
// flag: never, always, every, batch.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	case "every":
		return SyncEvery, nil
	case "batch":
		return SyncBatch, nil
	}
	return 0, fmt.Errorf("storage: unknown sync policy %q (want never|always|every|batch)", s)
}

// Options configures a file journal.
type Options struct {
	// SegmentSize is the maximum byte size of one segment file
	// (default 4 MiB).
	SegmentSize int64
	// Policy is the sync policy (default SyncNever).
	Policy SyncPolicy
	// SyncInterval is N for SyncEvery (default 256).
	SyncInterval int
	// BatchMaxRecords bounds a SyncBatch group: after this many
	// unsynced appends the committer is woken even if no durability
	// ack is pending (default 1024).
	BatchMaxRecords int
	// BatchMaxDelay is the SyncBatch max-latency tick: buffered
	// records are fsynced at least this often, so a lone writer never
	// stalls behind an empty batch (default 2ms).
	BatchMaxDelay time.Duration
	// Metrics instruments append and fsync latency (zero value =
	// uninstrumented; the nil handles cost one branch per site).
	Metrics obs.WALMetrics
	// FS is the filesystem the journal operates through (default
	// fault.OS). Chaos runs substitute a fault.Injector here.
	FS fault.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 256
	}
	if o.BatchMaxRecords <= 0 {
		o.BatchMaxRecords = 1024
	}
	if o.BatchMaxDelay <= 0 {
		o.BatchMaxDelay = 2 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	return o
}

func (o Options) String() string {
	pol := o.Policy.String()
	switch o.Policy {
	case SyncEvery:
		pol = fmt.Sprintf("every%d", o.SyncInterval)
	case SyncBatch:
		pol = fmt.Sprintf("batch(max=%d,tick=%s)", o.BatchMaxRecords, o.BatchMaxDelay)
	}
	return fmt.Sprintf("seg=%dB sync=%s", o.SegmentSize, pol)
}
