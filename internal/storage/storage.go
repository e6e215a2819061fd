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
// Durability contract: a file journal group-commits. AppendDurable
// returns only after the record is on stable storage; concurrent
// callers share one fsync. A plain Append returns once the record is
// buffered, and the same committer makes it durable within
// Options.BatchMaxDelay (sooner when batchMaxRecords appends are
// waiting, or on Sync).
//
// On disk, WAL segments and snapshots share one record frame,
// [uvarint length][4B CRC-32C][payload] (frame.go): 5 bytes of framing
// for a record up to 127 bytes. A WAL record's index is implied by its
// segment and position, and its CRC covers it, so a torn tail (partial
// final record after a crash), a corrupt record or one written for
// another index ends the valid prefix, which open truncates to. Each
// file begins with a magic naming this framing; files in the framing of
// data format 4 are refused by the readers and rewritten by Upgrade.
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

// ErrCorrupt reports a record that fails its integrity check where no
// torn tail may end the log: inside a sealed WAL segment, which must
// hold every record up to the next segment's base, or in a snapshot that
// validated when it was opened. Only the last segment may end early: a
// crash tears its tail, and open truncates it.
type ErrCorrupt struct {
	// Segment is the damaged file.
	Segment string
	// Index is the first record of a segment that could not be read (0
	// for a snapshot).
	Index uint64
}

func (e *ErrCorrupt) Error() string {
	if e.Index == 0 {
		return fmt.Sprintf("storage: corrupt record in %s", e.Segment)
	}
	return fmt.Sprintf("storage: corrupt record %d in sealed segment %s", e.Index, e.Segment)
}

// Journal is an append-only, replayable record log. Indices are
// contiguous and start at 1. A record holds 1 to 64 MiB; an append that
// fails, such a record refused among others, takes no index, so the
// next append gets the one it would have had. Implementations are safe
// for concurrent use.
type Journal interface {
	// Append adds a record and returns its index.
	Append(payload []byte) (uint64, error)
	// AppendDurable adds a record and blocks until it is on stable
	// storage. Concurrent callers are coalesced into one group commit
	// (a single write+fsync acknowledges the whole batch).
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

// SyncPolicy names how a file journal forces data to disk. There is
// one policy, SyncBatch: Options.Policy is read nowhere and kept only
// for callers that still set it.
type SyncPolicy int

// SyncBatch group-commits: a dedicated committer goroutine coalesces
// concurrent appends into one write+fsync and wakes every AppendDurable
// waiter once its record is durable.
const SyncBatch SyncPolicy = 0

// String names the policy (flag value form).
func (SyncPolicy) String() string { return "batch" }

// batchMaxRecords bounds a group commit: after this many unsynced
// appends the committer is woken even if no durability ack is pending.
const batchMaxRecords = 1024

// Options configures a file journal.
type Options struct {
	// SegmentSize is the maximum byte size of one segment file
	// (default 4 MiB).
	SegmentSize int64
	// Policy is ignored: every file journal group-commits.
	Policy SyncPolicy
	// BatchMaxDelay bounds how long an appended record stays unsynced
	// when no durability ack asks for it sooner (default 2ms).
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
	if o.BatchMaxDelay <= 0 {
		o.BatchMaxDelay = 2 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	return o
}
