package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpms/internal/fault"
)

// obs handles arrive through Options.Metrics (see storage.go); the
// hot-path cost when uninstrumented is one nil check per site.

// Segment layout on disk:
//
//	[4B magic "BWL5"]
//	then per record: a frame (frame.go) whose CRC covers the record's
//	index and payload
//
// Segment files are named wal-<firstIndex>.log with a zero-padded
// 20-digit first index, so lexical order equals index order. A
// segment's records are numbered from its first index without gaps, so
// a record's index is its position; a failed append takes none. A file
// shorter than the magic is a segment created but never written to,
// and holds no record.

var segmentMagic = [frameMagicLen]byte{'B', 'W', 'L', '5'}

// errOldFraming refuses a segment in the framing before segmentMagic,
// which only Upgrade reads.
var errOldFraming = errors.New("storage: segment in the framing of data format 4 or older (the data dir needs its upgrade)")

// FileJournal is a durable Journal over segmented append-only files.
type FileJournal struct {
	dir  string
	opts Options

	mu          sync.Mutex
	active      fault.File
	activeBase  uint64 // first index of the active segment
	activeSize  int64
	activeBuf   *bufio.Writer
	segments    []uint64 // first indices of all segments, sorted
	nextIndex   uint64
	firstIndex  uint64 // oldest retained index (0 when empty)
	sinceSync   int
	syncedIndex uint64 // newest index known to be on stable storage
	waiters     []commitWaiter
	closed      bool
	appendedAny bool
	index       func(base, end uint64) []byte // IndexSegments'
	// Marks: the byte offset of every markStride-th record of a segment
	// (segindex.go), the active segment's and those sealed ones' that
	// were read whole or taken from an index file.
	activeMarks []int64
	marks       map[uint64][]int64

	// Group-commit machinery.
	delay    *time.Timer   // max-delay clock, armed by the first unsynced append
	commitCh chan struct{} // wakes the committer; buffered, coalescing
	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once
}

// commitWaiter is one AppendDurable caller parked until its record's
// batch is fsynced.
type commitWaiter struct {
	index uint64
	ch    chan error
}

func segmentName(first uint64) string {
	return fmt.Sprintf("wal-%020d.log", first)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// OpenFileJournal opens (or creates) a journal in dir, recovering from
// any torn tail left by a crash.
func OpenFileJournal(dir string, opts Options) (*FileJournal, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	j := &FileJournal{dir: dir, opts: opts, nextIndex: 1, marks: map[uint64][]int64{}}
	entries, err := opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read dir: %w", err)
	}
	for _, e := range entries {
		if base, ok := parseSegmentName(e.Name()); ok {
			j.segments = append(j.segments, base)
		}
	}
	sort.Slice(j.segments, func(a, b int) bool { return j.segments[a] < j.segments[b] })
	if len(j.segments) > 0 {
		j.firstIndex = j.segments[0]
		// Recover the last segment: scan and truncate a torn tail.
		last := j.segments[len(j.segments)-1]
		next, size, err := j.scanFrom(last, last, frameMagicLen, nil, &j.activeMarks)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, segmentName(last))
		if err := opts.FS.Truncate(path, size); err != nil {
			return nil, fmt.Errorf("storage: truncate torn tail: %w", err)
		}
		j.nextIndex = next
		f, err := opts.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		j.active = f
		j.activeBase = last
		j.activeSize = size
		j.activeBuf = bufio.NewWriterSize(f, 64<<10)
		if size == 0 {
			j.startSegmentLocked()
		}
	}
	j.syncedIndex = j.nextIndex - 1 // everything recovered is on disk
	j.delay = time.NewTimer(opts.BatchMaxDelay)
	j.delay.Stop()
	j.commitCh = make(chan struct{}, 1)
	j.stopCh = make(chan struct{})
	j.doneCh = make(chan struct{})
	go j.committer()
	return j, nil
}

// scanSegment reads a whole segment (scanFrom its first record).
func (j *FileJournal) scanSegment(base uint64, fn func(uint64, []byte) error) (uint64, int64, error) {
	return j.scanFrom(base, base, frameMagicLen, fn, nil)
}

// scanFrom reads the segment at base from its record first, whose frame
// begins at byte offset, calling fn per valid record, and returns the
// index after the last valid record (first when there is none) and the
// byte offset just past it (0 for a file shorter than the magic). When
// marks is set, the offset of each markStride-th record is appended to
// it. A frame that fails its check for the next index, the index it
// would hold, ends the valid prefix, torn or corrupt or written for
// another index alike. A segment in the older framing is refused, never
// read as this one.
func (j *FileJournal) scanFrom(base, first uint64, offset int64, fn func(uint64, []byte) error, marks *[]int64) (uint64, int64, error) {
	path := filepath.Join(j.dir, segmentName(base))
	f, err := j.opts.FS.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: open segment: %w", err)
	}
	defer f.Close()
	var magic [frameMagicLen]byte
	if _, err := io.ReadFull(f, magic[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return base, 0, nil
	} else if err != nil {
		return 0, 0, fmt.Errorf("storage: read segment %s: %w", path, err)
	} else if magic != segmentMagic {
		return 0, 0, fmt.Errorf("%w: %s", errOldFraming, path)
	}
	if offset > frameMagicLen {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			return 0, 0, fmt.Errorf("storage: read segment %s: %w", path, err)
		}
	}
	fr := newFrameReader(f)
	for next := first; ; next++ {
		if marks != nil && next > base && (next-base)%markStride == 0 {
			*marks = append(*marks, offset)
		}
		payload, size, err := fr.next(indexSeed(next))
		if err == io.EOF || err == errBadFrame {
			if marks != nil && len(*marks) > 0 && (*marks)[len(*marks)-1] == offset {
				*marks = (*marks)[:len(*marks)-1] // no record begins there
			}
			return next, offset, nil
		} else if err != nil {
			return next, offset, fmt.Errorf("storage: read segment %s: %w", path, err)
		}
		if fn != nil {
			if err := fn(next, payload); err != nil {
				return next, offset, err
			}
		}
		offset += size
	}
}

// Append implements Journal.
func (j *FileJournal) Append(payload []byte) (uint64, error) {
	t0 := j.opts.Metrics.Append.Start()
	j.mu.Lock()
	index, err := j.appendLocked(payload)
	j.mu.Unlock()
	j.opts.Metrics.Append.Since(t0)
	return index, err
}

// AppendDurable implements Journal: the append returns only after the
// record is on stable storage. The caller parks on an ack channel and
// the committer goroutine group-commits all records buffered since the
// last fsync.
func (j *FileJournal) AppendDurable(payload []byte) (uint64, error) {
	t0 := j.opts.Metrics.Append.Start()
	j.mu.Lock()
	index, err := j.appendLocked(payload)
	if err != nil {
		j.mu.Unlock()
		return 0, err
	}
	ch := make(chan error, 1)
	j.waiters = append(j.waiters, commitWaiter{index: index, ch: ch})
	j.mu.Unlock()
	j.kickCommitter()
	err = <-ch
	j.opts.Metrics.Append.Since(t0)
	return index, err
}

// kickCommitter wakes the committer without blocking; a pending wakeup
// coalesces with this one.
func (j *FileJournal) kickCommitter() {
	select {
	case j.commitCh <- struct{}{}:
	default:
	}
}

// committer is the group-commit loop: it fsyncs whenever an
// AppendDurable waiter is parked or an unsynced append has waited
// BatchMaxDelay, then wakes every waiter whose record the fsync
// covered. The delay clock runs only while records are unsynced, so an
// idle journal does not wake.
func (j *FileJournal) committer() {
	defer close(j.doneCh)
	defer j.delay.Stop()
	for {
		select {
		case <-j.stopCh:
			j.commitBatch()
			return
		case <-j.commitCh:
			j.gather()
			j.commitBatch()
		case <-j.delay.C:
			j.commitBatch()
		}
	}
}

// gather lets the batch fill before the fsync: yield the processor
// until no new append arrived between two looks (or the batch is
// full). Without this the scheduler's channel handoff tends to run
// the committer immediately after the first kick, ping-ponging with a
// single writer while the other writers sit in the run queue — batches
// stay near size one and group commit degenerates to sync-per-append.
// A lone writer pays one Gosched (~µs) before its fsync.
func (j *FileJournal) gather() {
	prev := -1
	for i := 0; i < 64; i++ {
		j.mu.Lock()
		n := j.sinceSync
		full := n >= batchMaxRecords
		j.mu.Unlock()
		if full || n == prev {
			return
		}
		prev = n
		runtime.Gosched()
	}
}

// commitBatch runs one group commit: flush the write buffer under the
// lock, fsync OUTSIDE the lock so concurrent appends keep buffering
// into the next batch, then release every waiter the fsync covered.
// Holding the lock across the fsync would cap batches at roughly one
// record — writers could not get their appends in while the disk was
// busy, which is the whole throughput win of group commit.
func (j *FileJournal) commitBatch() {
	j.mu.Lock()
	if j.closed {
		// Close performed the final flush+sync; anything appended
		// before closing is durable.
		j.notifyWaitersLocked(nil)
		j.mu.Unlock()
		return
	}
	if j.sinceSync == 0 && len(j.waiters) == 0 {
		j.mu.Unlock()
		return
	}
	if j.active == nil {
		j.mu.Unlock()
		return
	}
	if err := j.activeBuf.Flush(); err != nil {
		j.notifyWaitersLocked(err)
		j.delay.Reset(j.opts.BatchMaxDelay) // retry the unsynced records
		j.mu.Unlock()
		return
	}
	f := j.active
	upTo := j.nextIndex - 1
	// These records are in the in-flight commit now; appends arriving
	// during the fsync below restart the counter for the next batch.
	pending := j.sinceSync
	j.sinceSync = 0
	j.delay.Stop()
	j.mu.Unlock()

	t0 := j.opts.Metrics.Fsync.Start()
	err := f.Sync()
	j.opts.Metrics.Fsync.Since(t0)

	j.mu.Lock()
	if err != nil && j.active != f {
		// The segment rolled while we were fsyncing: rollLocked
		// flushed and fsynced the outgoing file before closing it, so
		// everything up to upTo is durable despite the error from the
		// closed handle.
		err = nil
	}
	if err != nil {
		// Genuine sync failure: fail every parked caller and put the
		// batch back on the unsynced counter so the delay clock
		// retries it.
		j.sinceSync += pending
		j.delay.Reset(j.opts.BatchMaxDelay)
		j.notifyWaitersLocked(err)
		j.mu.Unlock()
		return
	}
	if upTo > j.syncedIndex {
		j.syncedIndex = upTo
	}
	// Release only the waiters this fsync covered; later arrivals
	// already kicked the committer again and ride the next batch.
	var done []commitWaiter
	keep := j.waiters[:0]
	for _, w := range j.waiters {
		if w.index <= upTo {
			done = append(done, w)
		} else {
			keep = append(keep, w)
		}
	}
	j.waiters = keep
	j.mu.Unlock()
	for _, w := range done {
		w.ch <- nil
	}
}

// notifyWaitersLocked completes every parked AppendDurable call with
// err. Waiter channels are buffered, so sending under the lock cannot
// block.
func (j *FileJournal) notifyWaitersLocked(err error) {
	for _, w := range j.waiters {
		w.ch <- err
	}
	j.waiters = nil
}

// appendLocked buffers one record and wakes the committer when the
// batch is full. An append that fails takes no index: the next one gets
// the same. Called under j.mu.
func (j *FileJournal) appendLocked(payload []byte) (uint64, error) {
	if j.closed {
		return 0, ErrClosed
	}
	if err := checkPayload(payload); err != nil {
		return 0, err
	}
	recSize := frameSize(len(payload))
	if j.active == nil || (j.activeSize > frameMagicLen && j.activeSize+recSize > j.opts.SegmentSize) {
		if err := j.rollLocked(); err != nil {
			return 0, err
		}
	}
	index := j.nextIndex
	if n := index - j.activeBase; n > 0 && n%markStride == 0 {
		j.activeMarks = append(j.activeMarks, j.activeSize)
	}
	var hdr [maxFrameHead]byte
	n := putFrameHead(&hdr, indexSeed(index), payload)
	if _, err := j.activeBuf.Write(hdr[:n]); err != nil {
		return 0, err
	}
	if _, err := j.activeBuf.Write(payload); err != nil {
		return 0, err
	}
	j.activeSize += recSize
	j.nextIndex++
	if j.firstIndex == 0 {
		j.firstIndex = index
	}
	j.appendedAny = true
	j.sinceSync++
	// The first unsynced record starts the delay clock. A full batch
	// wakes the committer at once, even when no durability ack is
	// pending.
	if j.sinceSync == 1 {
		j.delay.Reset(j.opts.BatchMaxDelay)
	}
	if j.sinceSync >= batchMaxRecords {
		j.kickCommitter()
	}
	return index, nil
}

func (j *FileJournal) rollLocked() error {
	sealing := j.active != nil
	sealed, sealedSize, sealedMarks := Segment{Base: j.activeBase, End: j.nextIndex}, j.activeSize, j.activeMarks
	if sealing {
		if err := j.activeBuf.Flush(); err != nil {
			return err
		}
		// Sync before closing: once the segment is rolled, the
		// committer and Sync only reach the new active file, so this
		// is the last chance to make the outgoing segment's tail
		// durable.
		if err := j.active.Sync(); err != nil {
			return err
		}
		if err := j.active.Close(); err != nil {
			return err
		}
		j.sinceSync = 0
		j.syncedIndex = j.nextIndex - 1
	}
	base := j.nextIndex
	path := filepath.Join(j.dir, segmentName(base))
	f, err := j.opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	j.active = f
	j.activeBase = base
	j.activeSize = 0
	j.activeBuf = bufio.NewWriterSize(f, 64<<10)
	j.activeMarks = nil
	j.segments = append(j.segments, base)
	j.startSegmentLocked()
	if sealing && j.index != nil {
		j.marks[sealed.Base] = sealedMarks
		if body := j.index(sealed.Base, sealed.End); body != nil {
			_ = j.writeIndexLocked(sealed, sealedSize, sealedMarks, body) // without one, a reader scans
		}
	}
	return nil
}

// startSegmentLocked buffers the magic that opens the empty active
// segment; it reaches the file with the segment's first flush.
func (j *FileJournal) startSegmentLocked() {
	j.activeBuf.Write(segmentMagic[:]) // a fresh buffer takes it whole
	j.activeSize = frameMagicLen
}

func (j *FileJournal) syncLocked() error {
	if j.active == nil {
		return nil
	}
	if err := j.activeBuf.Flush(); err != nil {
		return err
	}
	t0 := j.opts.Metrics.Fsync.Start()
	if err := j.active.Sync(); err != nil {
		return err
	}
	j.opts.Metrics.Fsync.Since(t0)
	j.sinceSync = 0
	j.syncedIndex = j.nextIndex - 1
	return nil
}

// Replay implements Journal.
func (j *FileJournal) Replay(from uint64, fn func(uint64, []byte) error) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	// Flush buffered appends so the reader sees them.
	if j.activeBuf != nil {
		if err := j.activeBuf.Flush(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	segments := append([]uint64(nil), j.segments...)
	// The segment holding from is read from its mark nearest below from,
	// when it has marks; a sealed segment read whole leaves its marks.
	seek := j.marks[segmentOf(segments, from)]
	j.mu.Unlock()

	for i, base := range segments {
		// Skip whole segments below from.
		if i+1 < len(segments) && segments[i+1] <= from {
			continue
		}
		first, offset := base, int64(frameMagicLen)
		if k := min(int((max(from, base)-base)/markStride), len(seek)); k > 0 {
			first, offset = base+uint64(k)*markStride, seek[k-1]
		}
		seek = nil
		var marks *[]int64
		if first == base && i+1 < len(segments) {
			j.mu.Lock()
			if _, ok := j.marks[base]; !ok {
				marks = new([]int64)
			}
			j.mu.Unlock()
		}
		deliver := func(index uint64, payload []byte) error {
			if index < from {
				return nil
			}
			return fn(index, payload)
		}
		next, _, err := j.scanFrom(base, first, offset, deliver, marks)
		if err == nil && next == first && first != base {
			// The mark does not begin its record: the segment is read
			// from its start, and its marks are forgotten.
			j.mu.Lock()
			delete(j.marks, base)
			j.mu.Unlock()
			next, _, err = j.scanFrom(base, base, frameMagicLen, deliver, nil)
		}
		if err != nil {
			return err
		}
		if err := j.checkSealed(segments, i, next); err != nil {
			return err
		}
		if marks != nil {
			j.mu.Lock()
			j.marks[base] = *marks
			j.mu.Unlock()
		}
	}
	return nil
}

// segmentOf returns the base of the segment that holds index, or 0.
func segmentOf(segments []uint64, index uint64) uint64 {
	i, _ := slices.BinarySearch(segments, index+1)
	if i == 0 {
		return 0
	}
	return segments[i-1]
}

// checkSealed fails a sealed segment, segments[i], whose valid records
// end at next rather than at the next segment's base: only the last
// segment may end in a torn tail.
func (j *FileJournal) checkSealed(segments []uint64, i int, next uint64) error {
	if i+1 < len(segments) && next != segments[i+1] {
		return &ErrCorrupt{Segment: filepath.Join(j.dir, segmentName(segments[i])), Index: next}
	}
	return nil
}

// LastIndex implements Journal.
func (j *FileJournal) LastIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.nextIndex == 1 && !j.appendedAny && len(j.segments) == 0 {
		return 0
	}
	return j.nextIndex - 1
}

// FirstIndex implements Journal.
func (j *FileJournal) FirstIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.firstIndex
}

// DropBefore implements Journal: whole segments entirely below upTo
// are deleted.
func (j *FileJournal) DropBefore(upTo uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	keep := j.segments[:0]
	for i, base := range j.segments {
		// A segment is droppable when the next segment starts at or
		// below upTo (so this one holds only records < upTo) and it is
		// not the active segment.
		droppable := i+1 < len(j.segments) && j.segments[i+1] <= upTo && base != j.activeBase
		if droppable {
			if err := j.opts.FS.Remove(filepath.Join(j.dir, segmentName(base))); err != nil {
				return err
			}
			if j.index != nil {
				// One left behind names a segment that is gone: no reader
				// looks for it.
				_ = j.opts.FS.Remove(filepath.Join(j.dir, indexName(base)))
			}
			delete(j.marks, base)
			continue
		}
		keep = append(keep, base)
	}
	j.segments = keep
	// Recompute firstIndex from the surviving keep-set rather than
	// patching it conditionally: the oldest retained record is the
	// base of the oldest surviving segment. The empty case is
	// defensive — the active segment always survives today — and
	// mirrors the field's "0 when empty" contract should dropping
	// ever extend to the active segment.
	if len(j.segments) == 0 {
		j.firstIndex = 0
	} else {
		j.firstIndex = j.segments[0]
	}
	return nil
}

// Sync implements Journal.
func (j *FileJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	err := j.syncLocked()
	if err == nil {
		// Everything buffered is durable now, including records whose
		// AppendDurable callers are parked on the committer.
		j.notifyWaitersLocked(nil)
	}
	return err
}

// SyncedIndex implements Journal.
func (j *FileJournal) SyncedIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncedIndex
}

// Close implements Journal: the committer is drained first so parked
// AppendDurable calls complete, then the active segment is flushed,
// fsynced, and closed.
func (j *FileJournal) Close() error {
	j.stopOnce.Do(func() { close(j.stopCh) })
	<-j.doneCh
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if j.active != nil {
		if e := j.activeBuf.Flush(); e != nil {
			err = e
		} else if e := j.active.Sync(); e != nil {
			err = e
		} else {
			j.syncedIndex = j.nextIndex - 1
		}
		if e := j.active.Close(); e != nil && err == nil {
			err = e
		}
	}
	// Any waiter that slipped in between the committer draining and
	// the close is covered by the final sync above.
	j.notifyWaitersLocked(err)
	return err
}

// SegmentCount reports the number of live segment files (for tests).
func (j *FileJournal) SegmentCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments)
}
