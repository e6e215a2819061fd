package storage

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// Go allocates a heap object above 32 KiB as a run of 8 KiB pages, with
// no size-class rounding, so a chunk that is such a page multiple wastes
// nothing in the allocator. At 64 KiB one chunk holds about 1 500 audit
// records of ~41 B, so its allocation vanishes from the per-record cost,
// while an idle journal's partly filled chunk stays small.
const (
	heapPage     = 8 << 10
	memChunkSize = 8 * heapPage
)

// MemJournal is an in-memory Journal: the audit trail of a system run
// without a data directory, and the journal tests and benchmarks use to
// take I/O out of a measurement. Records are packed back to back, each
// behind its uvarint length, into fixed-capacity byte chunks (a record
// larger than a chunk gets a chunk of its own), so an append allocates
// nothing until a chunk fills, and the collector never scans record
// bytes.
//
// Concurrent Replay reads without the lock: a chunk's buffer is
// allocated once and its slice header is never rewritten, the fill
// level lives in the journal, and a reader stops at the record count it
// saw, so an Append only writes bytes no reader reaches.
type MemJournal struct {
	mu     sync.RWMutex
	chunks []memChunk // oldest first; only the last one still fills
	fill   int        // bytes used in the last chunk
	first  uint64     // oldest retained index
	next   uint64     // index the next Append returns
	closed bool
}

// memChunk is one packed run of records.
type memChunk struct {
	first uint64 // index of the chunk's first record
	buf   []byte
}

// NewMemJournal returns an empty in-memory journal.
func NewMemJournal() *MemJournal {
	return &MemJournal{first: 1, next: 1}
}

// uvarintLen is the size of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Append implements Journal.
func (m *MemJournal) Append(payload []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	if err := checkPayload(payload); err != nil {
		return 0, err
	}
	size := uint64(len(payload))
	need := uvarintLen(size) + len(payload)
	if len(m.chunks) == 0 || len(m.chunks[len(m.chunks)-1].buf)-m.fill < need {
		m.chunks = append(m.chunks, memChunk{first: m.next, buf: make([]byte, max(need, memChunkSize))})
		m.fill = 0
	}
	buf := m.chunks[len(m.chunks)-1].buf[m.fill:]
	n := binary.PutUvarint(buf, size)
	m.fill += n + copy(buf[n:], payload)
	m.next++
	return m.next - 1, nil
}

// AppendDurable implements Journal (memory is "durable" on return).
func (m *MemJournal) AppendDurable(payload []byte) (uint64, error) {
	return m.Append(payload)
}

// Replay implements Journal. A payload's capacity ends where it does,
// so a callback appending to it cannot overwrite the next record.
func (m *MemJournal) Replay(from uint64, fn func(uint64, []byte) error) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	chunks, first, next := m.chunks, m.first, m.next
	m.mu.RUnlock()
	from = max(from, first)
	if from >= next {
		return nil
	}
	// Start at the last chunk that begins at or before from.
	c := sort.Search(len(chunks), func(i int) bool { return chunks[i].first > from }) - 1
	for ; c < len(chunks); c++ {
		buf, off, end := chunks[c].buf, 0, chunkEnd(chunks, c, next)
		for index := chunks[c].first; index < end; index++ {
			size, n := binary.Uvarint(buf[off:])
			start := off + n
			off = start + int(size)
			if index < from {
				continue
			}
			if err := fn(index, buf[start:off:off]); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkEnd returns the index just past chunk c's last record, where next
// is the index the journal's next Append returns.
func chunkEnd(chunks []memChunk, c int, next uint64) uint64 {
	if c+1 < len(chunks) {
		return chunks[c+1].first
	}
	return next
}

// LastIndex implements Journal.
func (m *MemJournal) LastIndex() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.first == m.next {
		return 0
	}
	return m.next - 1
}

// FirstIndex implements Journal.
func (m *MemJournal) FirstIndex() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.first == m.next {
		return 0
	}
	return m.first
}

// DropBefore implements Journal. Records below upTo stop replaying at
// once; a chunk is freed when all of its records are below the cut.
func (m *MemJournal) DropBefore(upTo uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	upTo = min(upTo, m.next)
	if upTo <= m.first {
		return nil
	}
	m.first = upTo
	dead := 0
	for dead < len(m.chunks) && chunkEnd(m.chunks, dead, m.next) <= upTo {
		dead++
	}
	if dead > 0 {
		// A fresh slice, so the freed chunks are unreachable and the
		// array readers may still hold is never written.
		m.chunks = append([]memChunk(nil), m.chunks[dead:]...)
	}
	return nil
}

// Sync implements Journal (a no-op in memory).
func (m *MemJournal) Sync() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// SyncedIndex implements Journal.
func (m *MemJournal) SyncedIndex() uint64 { return m.LastIndex() }

// Close implements Journal.
func (m *MemJournal) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// DiscardJournal numbers records and keeps none: the engine state
// journal of a system run without a data directory, which nothing reads
// after open. Its indices count appends exactly as a retaining journal's
// would, for the stats and shutdown summaries that report them.
type DiscardJournal struct {
	last   atomic.Uint64
	closed atomic.Bool
}

// NewDiscardJournal returns a journal that has numbered no record yet.
func NewDiscardJournal() *DiscardJournal { return &DiscardJournal{} }

// Append implements Journal.
func (d *DiscardJournal) Append(payload []byte) (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	if err := checkPayload(payload); err != nil {
		return 0, err
	}
	return d.last.Add(1), nil
}

// AppendDurable implements Journal.
func (d *DiscardJournal) AppendDurable(payload []byte) (uint64, error) {
	return d.Append(payload)
}

// Replay implements Journal: there is nothing to replay.
func (d *DiscardJournal) Replay(uint64, func(uint64, []byte) error) error { return d.Sync() }

// LastIndex implements Journal.
func (d *DiscardJournal) LastIndex() uint64 { return d.last.Load() }

// FirstIndex implements Journal: no record is retained.
func (d *DiscardJournal) FirstIndex() uint64 { return 0 }

// DropBefore implements Journal.
func (d *DiscardJournal) DropBefore(uint64) error { return d.Sync() }

// Sync implements Journal: there is nothing to sync, so like Replay and
// DropBefore it only reports ErrClosed once the journal is closed.
func (d *DiscardJournal) Sync() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return nil
}

// SyncedIndex implements Journal.
func (d *DiscardJournal) SyncedIndex() uint64 { return d.LastIndex() }

// Close implements Journal.
func (d *DiscardJournal) Close() error {
	d.closed.Store(true)
	return nil
}
