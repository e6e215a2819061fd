package history

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bpms/internal/fnv1a"
	"bpms/internal/obs"
	"bpms/internal/storage"
)

// Store is the audit-event store: events are appended durably to
// journals and indexed in memory for queries.
//
// The store is striped: events hash by instance ID (FNV-1a, as the
// shard router places instances) onto N stripes, each owning its own
// journal, in-memory index, and lock. core opens one stripe per engine
// shard, so stripe k holds the audit trail of shard k's cases. Enqueue
// records an event on the caller's goroutine: under the stripe lock it
// encodes the event into the stripe's reused buffer, appends the record
// to the journal (which buffers it; a file journal's group commit
// fsyncs it within its max delay) and indexes it. No goroutine of the
// store outlives its open, and it keeps nothing of the event passed in.
//
// Ordering: events of one instance always land on one stripe and are
// recorded in emission order, so per-instance order is preserved both
// in RAM and in that stripe's journal. With more than one stripe there
// is no global cross-instance order (All streams stripe by stripe).
//
// Memory: each stripe keeps a bounded window of recent events resident
// (StoreOptions.Window; 0 keeps everything), as the packed records the
// journal holds (window.go), not as decoded events. Queries that reach
// below the window are answered by replaying the stripe's journal
// prefix, so results are identical with and without eviction. Every
// answer is decoded from a record, resident or not: each call returns
// fresh events, their times carry no monotonic reading, and numbers in
// Data come back as float64.
//
// Open: rebuilding a stripe reads what the window keeps and little
// else. The append that seals a segment of a file journal writes the
// segment's index file, wal-<base>.idx: its event count per instance,
// tallied run by run as the stripe counted its records (segindex.go).
// At open a sealed segment with a valid index file contributes its
// counts and is not read; the records past the window's cut, the last
// `window` of them, are read from the nearest mark below the cut and
// copied into the window as they are, and the active segment's records
// are counted too. Nothing is decoded: an instance ID is peeked where it
// lies, and looked up once per run of one instance's records. A sealed
// segment whose index file is missing, damaged or stale (written for
// other bytes than the segment holds) is read and counted instead, and
// its index file written anew, so the answers never depend on an index
// file, only the time an open takes. A journal without segment files
// (storage.MemJournal) is read whole. The stripes replay at once, one
// goroutine each; a journal holding a record that is not v2 does not
// open (decode.go).
//
// Damage: only the active segment of a journal may end in a torn tail,
// which its open truncates. A sealed segment whose records do not run up
// to the next segment's base fails any read of it with
// storage.ErrCorrupt, naming the file: the open, when it reads the
// segment, or else the first query that reaches below the window into
// it (EventsOf reports it through Flush, All returns it). A segment the
// open takes from its index file is not read, so its damage shows only
// then.
//
// A query sees every event recorded before it was called. Rebuilding
// the indexes from the journals on open makes the store fully
// recoverable.
type Store struct {
	stripes []*stripe
	window  int

	// Boot replay, fixed once NewStriped returns.
	recovery  time.Duration
	recovered int
}

// StoreOptions configures a striped store.
type StoreOptions struct {
	// Window bounds the number of events each stripe keeps resident in
	// RAM (0 = unbounded), as their packed journal records (about 41 B
	// and a locator each for a pipeline event). Older events remain
	// queryable through journal replay.
	Window int
	// Metrics, when set, times each stripe's appends.
	Metrics *obs.Metrics
}

// errStopReplay ends a query's replay of the journal prefix once it
// reaches the resident window.
var errStopReplay = errors.New("history: stop replay")

// segmented is a journal kept in segment files, each sealed one with an
// index file whose body the stripe writes (storage.FileJournal).
type segmented interface {
	Segments() ([]storage.Segment, error)
	WriteSegmentIndex(base uint64, body []byte) error
	IndexSegments(index func(base, end uint64) []byte)
}

type stripe struct {
	journal storage.Journal
	segs    segmented      // the journal's segment files; nil without
	commit  *obs.Histogram // times append

	mu      sync.RWMutex
	res     packedWindow // resident records, oldest first
	evicted int          // events dropped from RAM (journal-only)
	// insts holds every instance the stripe has a record of, by ID.
	insts map[string]*instance
	// last is the instance of the newest appended record, so a run of
	// one instance's records looks its entry up once.
	last *instance
	// seg tallies the active segment for its index file; nil for a
	// journal without segment files.
	seg     *segTally
	spare   []instance // the rest of the last chunk of entries
	count   int
	lastErr error // first append failure (surfaced by Flush)
	boot    bootStats

	// Encode scratch, guarded by mu. The window copies what it keeps,
	// so the buffer is reused from event to event.
	encBuf []byte
	idBuf  []byte // evictLocked's, for a numbered instance ID
}

// instance is what a stripe knows of one instance. Its count is
// cumulative (unaffected by eviction): when the resident records are
// fewer, the difference lives in the journal. Entries are allocated
// instanceChunk at a time, 48 bytes each.
type instance struct {
	id      string
	indexes []uint64 // journal indexes of its resident records, oldest first
	count   int32    // its records, resident or not
	seg     int32    // its records in the active segment (segTally)
}

const instanceChunk = 64

// bootStats counts how an open took a file journal's segments.
type bootStats struct{ indexed, scanned, fallbacks int }

// NewStriped opens a store over one journal per stripe, replaying the
// journals concurrently to rebuild the stripes' indexes. It returns once
// every replay has ended, with the first stripe's failure if any failed.
func NewStriped(journals []storage.Journal, opts StoreOptions) (*Store, error) {
	if len(journals) == 0 {
		return nil, fmt.Errorf("history: no journals")
	}
	window := max(opts.Window, 0)
	s := &Store{window: window}
	began := time.Now()
	errs := make([]error, len(journals))
	var wg sync.WaitGroup
	for i, j := range journals {
		st := newStripe(j, window, opts.Metrics.HistoryCommit(i))
		s.stripes = append(s.stripes, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.replay()
		}()
	}
	wg.Wait()
	for i, st := range s.stripes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		s.recovered += st.count
	}
	for _, st := range s.stripes {
		if st.segs != nil {
			st.segs.IndexSegments(st.sealLocked)
		}
	}
	s.recovery = time.Since(began)
	return s, nil
}

// newStripe returns an empty stripe over j, nothing replayed yet.
func newStripe(j storage.Journal, window int, commit *obs.Histogram) *stripe {
	st := &stripe{
		journal: j,
		commit:  commit,
		res:     packedWindow{limit: window},
		insts:   map[string]*instance{},
	}
	if segs, ok := j.(segmented); ok {
		st.segs, st.seg = segs, &segTally{}
	}
	return st
}

// replay rebuilds the stripe from its journal and decodes nothing. A
// sealed segment with a valid index file gives its counts; every other
// segment is read and counted, and a sealed one among them gets its index
// file written anew. The records past cut, the last `window` of them,
// are copied into the window as they are. The stripe ends up as if every
// record had gone through an append.
func (st *stripe) replay() error {
	last := st.journal.LastIndex()
	var cut uint64 // records at or below cut are not kept
	if st.res.limit > 0 && last > uint64(st.res.limit) {
		cut = last - uint64(st.res.limit)
	}
	segs := []storage.Segment{{Base: st.journal.FirstIndex()}}
	if st.segs != nil {
		var err error
		if segs, err = st.segs.Segments(); err != nil || len(segs) == 0 {
			return err
		}
	}
	// The last segment takes whatever the replay finds past it.
	segs[len(segs)-1].End = math.MaxUint64
	st.addIndexes(segs)
	from := cut + 1 // the first record read
	for _, s := range segs {
		if s.Index != nil {
			st.boot.indexed++
			continue
		}
		from = min(from, s.Base)
		st.boot.scanned++
		if s.Sealed {
			st.boot.fallbacks++
		}
	}
	if st.segs == nil {
		st.boot = bootStats{} // a journal without segment files
	}
	st.res.reserve(int(last - cut)) // the records the window keeps
	scan := bootScan{st: st, segs: segs, cut: cut}
	if err := st.journal.Replay(from, scan.add); err != nil {
		return err
	}
	for scan.k < len(segs) {
		scan.endSegment()
	}
	st.evicted = st.count - st.res.n
	return nil
}

// bootScan reads a stripe's journal from the first record replay needs.
// A record is counted when its segment has no valid index file, and kept
// when it lies past cut. Its instance is looked up once per run: a
// case's records mostly follow one another, and the records of one
// instance in a row are found by the bytes and number that hold its ID.
type bootScan struct {
	st   *stripe
	segs []storage.Segment // Index nil: the segment is counted
	k    int               // the segment being read
	cut  uint64

	r    record
	buf  []byte    // record.instance's
	open bool      // a run is open
	seq  uint64    // the run's instance number, 0 for a literal ID
	key  []byte    // its process ID, or its literal ID, copied
	inst *instance // nil for a run of records of no instance
}

// add peeks the record at index and enters it into the stripe.
func (c *bootScan) add(index uint64, payload []byte) error {
	for index >= c.segs[c.k].End {
		c.endSegment()
	}
	count, keep := c.segs[c.k].Index == nil, index > c.cut
	if !count && !keep {
		return nil // a record of an indexed segment, read in passing
	}
	r := &c.r
	if err := r.peek(payload); err != nil {
		return fmt.Errorf("history: replay record %d: %w", index, err)
	}
	key := r.strs[instanceField]
	if r.seq > 0 {
		key = r.strs[processField]
	}
	if !c.open || r.seq != c.seq || !bytes.Equal(key, c.key) {
		c.open, c.seq, c.key, c.inst = true, r.seq, append(c.key[:0], key...), nil
		if len(key) > 0 {
			c.inst = c.st.instanceOf(r.instance(&c.buf))
		}
	}
	c.st.addLocked(index, payload, c.inst, keep, count)
	return nil
}

// endSegment ends the segment being read and moves to the next. A
// sealed segment that was counted gets its index file written anew: a
// failed write costs the next open a scan of it again.
func (c *bootScan) endSegment() {
	s, st := c.segs[c.k], c.st
	c.k++
	if s.Index != nil || !s.Sealed || st.seg == nil {
		return
	}
	if body := st.seg.encode(s.End - s.Base); body != nil {
		_ = st.segs.WriteSegmentIndex(s.Base, body)
	}
	st.seg.reset()
}

// instanceOf returns the entry of the instance whose ID is id, adding
// it. A lookup by string(id) does not allocate: only a new instance does.
func (st *stripe) instanceOf(id []byte) *instance {
	if inst := st.insts[string(id)]; inst != nil {
		return inst
	}
	return st.newInstance(string(id))
}

// newInstance enters a new instance.
func (st *stripe) newInstance(id string) *instance {
	if len(st.spare) == 0 {
		st.spare = make([]instance, instanceChunk)
	}
	inst := &st.spare[0]
	st.spare = st.spare[1:]
	inst.id = id
	st.insts[id] = inst
	return inst
}

// Stripes returns the stripe count.
func (s *Store) Stripes() int { return len(s.stripes) }

func (s *Store) stripeFor(instanceID string) *stripe {
	if len(s.stripes) == 1 {
		return s.stripes[0]
	}
	return s.stripes[fnv1a.Sum32(instanceID)%uint32(len(s.stripes))]
}

// Enqueue records an event: the engine's audit path. Events of one
// instance keep their emission order. A failure is best-effort: it is
// kept for the next Flush to report.
func (s *Store) Enqueue(e *Event) {
	_ = s.Append(e)
}

// Append records an event as Enqueue does and also returns the failure.
// On success the event's Index field is set to its journal index.
func (s *Store) Append(e *Event) error {
	return s.stripeFor(e.InstanceID).append(e)
}

// append encodes e into the stripe's reused buffer, appends the record
// to the journal and indexes it, all under the stripe lock, so the
// window receives the journal's indexes in order.
func (st *stripe) append(e *Event) error {
	t0 := st.commit.Start()
	st.mu.Lock()
	buf, err := AppendEncode(st.encBuf[:0], e)
	if err == nil {
		var index uint64
		if index, err = st.journal.Append(buf); err == nil {
			e.Index = index
			st.indexLocked(index, buf, e.InstanceID)
		}
	}
	st.encBuf = buf[:0]
	if err != nil && st.lastErr == nil {
		st.lastErr = err
	}
	st.mu.Unlock()
	st.commit.Since(t0)
	return err
}

// recordErr keeps the first failure a query could not return (an
// undecodable resident record, a failed prefix replay) so the next
// Flush surfaces it.
func (st *stripe) recordErr(err error) {
	st.mu.Lock()
	if st.lastErr == nil {
		st.lastErr = err
	}
	st.mu.Unlock()
}

// indexLocked adds one appended event, its record rec at journal index,
// to the stripe: kept in the window and counted. The instance entry is
// looked up once per run of the instance's records.
func (st *stripe) indexLocked(index uint64, rec []byte, id string) {
	inst := st.last
	if id == "" {
		inst = nil
	} else if inst == nil || inst.id != id {
		if inst = st.insts[id]; inst == nil {
			inst = st.newInstance(id)
		}
		st.last = inst
	}
	st.addLocked(index, rec, inst, true, true)
}

// addLocked enters the record at journal index, of inst (nil for a
// record of no instance): when keep, it copies it into the resident
// window, evicting the oldest resident record when the window is full;
// when count, it counts it, and tallies it for the active segment's
// index file. An append does both, the boot scan what the record's place
// asks for. The window holds contiguous indexes: a journal append that
// fails takes no index (storage.Journal), so the next record kept is
// always the next one.
func (st *stripe) addLocked(index uint64, rec []byte, inst *instance, keep, count bool) {
	if keep {
		if st.res.full() {
			st.evictLocked()
		}
		st.res.add(index, rec)
		if inst != nil {
			if inst.indexes == nil {
				// A workflow instance emits tens of events; starting at a
				// realistic capacity skips the early doubling chain that
				// otherwise dominates index allocations.
				inst.indexes = make([]uint64, 0, 16)
			}
			inst.indexes = append(inst.indexes, index)
		}
	}
	if !count {
		return
	}
	st.count++
	if inst != nil {
		inst.count++
	}
	if st.seg != nil {
		st.seg.add(inst)
	}
}

// evictLocked drops the oldest resident record, and its index from its
// instance's list, which it heads. The instance ID is read from the
// record in place, so eviction allocates nothing.
func (st *stripe) evictLocked() {
	index, rec := st.res.first, st.res.oldest()
	// The window keeps only records peek accepted, so scan does too.
	var fields record
	_ = fields.scan(rec)
	if inst := st.insts[string(fields.instance(&st.idBuf))]; inst != nil && len(inst.indexes) > 0 && inst.indexes[0] == index {
		if len(inst.indexes) == 1 {
			inst.indexes = nil
		} else {
			inst.indexes = inst.indexes[1:]
		}
	}
	st.res.drop()
	st.evicted++
}

// Count returns the total number of events (including evicted ones).
func (s *Store) Count() int {
	total := 0
	for _, st := range s.stripes {
		st.mu.RLock()
		total += st.count
		st.mu.RUnlock()
	}
	return total
}

// InstanceIDs returns all instance IDs with at least one event, sorted.
func (s *Store) InstanceIDs() []string {
	var out []string
	for _, st := range s.stripes {
		st.mu.RLock()
		for id := range st.insts {
			out = append(out, id)
		}
		st.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// EventsOf returns the events of one instance in append order. Each
// call decodes fresh events from the records, resident or not, so the
// caller owns them; their times carry no monotonic reading, and numbers
// in Data are float64. When part of the instance's history has been
// evicted from the RAM window, the stripe's journal prefix is replayed,
// so the answer is identical with and without eviction. Should that
// replay fail (journal error, store closed), only the resident suffix
// is returned and the failure is recorded for the next Flush to report;
// so is a resident record that fails to decode, which is left out.
func (s *Store) EventsOf(instanceID string) []*Event {
	st := s.stripeFor(instanceID)
	st.mu.RLock()
	var indexes []uint64
	total := 0
	if inst := st.insts[instanceID]; inst != nil {
		indexes, total = inst.indexes, int(inst.count)
	}
	ramFirst := st.res.first
	var ram []*Event
	var bad error
	if len(indexes) > 0 {
		ram = make([]*Event, 0, len(indexes))
	}
	for _, index := range indexes {
		e, err := DecodeEvent(st.res.at(index))
		if err != nil {
			bad = fmt.Errorf("history: decode resident event %d of %s: %w", index, instanceID, err)
			continue
		}
		e.Index = index
		ram = append(ram, e)
	}
	st.mu.RUnlock()
	if bad != nil {
		st.recordErr(bad)
	}
	if len(indexes) == total {
		// Fully resident (or unknown): no journal replay needed, even
		// when the stripe has evicted other instances' events.
		return ram
	}
	// Part of the stripe's history lives only in the journal: replay
	// indexes below the resident window and keep this instance's
	// events. The resident records are a contiguous suffix, so
	// prefix+suffix is the complete ordered history.
	var out []*Event
	var idBuf []byte
	err := st.journal.Replay(1, func(index uint64, payload []byte) error {
		if ramFirst != 0 && index >= ramFirst {
			return errStopReplay
		}
		// Other instances' records are skipped undecoded.
		if _, inst, err := peekEvent(payload, &idBuf); err == nil && string(inst) != instanceID {
			return nil
		}
		e, derr := DecodeEvent(payload)
		if derr != nil {
			return derr
		}
		e.Index = index
		out = append(out, e)
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		// Serve the resident suffix, but do not pretend it is the full
		// trail silently: the failure is kept and surfaced by the next
		// Flush (queries have no error channel of their own).
		st.recordErr(fmt.Errorf("history: replay events of %s: %w", instanceID, err))
		return ram
	}
	return append(out, ram...)
}

// All streams every event in per-stripe append order (with one stripe
// this is global append order; with more, events of one instance stay
// ordered but stripes are concatenated), each decoded fresh as in
// EventsOf. Evicted prefixes are replayed from the journals; resident
// records are decoded from a snapshot of the window taken under the read
// lock, after it is released.
func (s *Store) All(fn func(*Event) error) error {
	for _, st := range s.stripes {
		st.mu.RLock()
		res := st.res.snapshot()
		evicted := st.evicted
		st.mu.RUnlock()
		if evicted > 0 {
			err := st.journal.Replay(1, func(index uint64, payload []byte) error {
				if res.first != 0 && index >= res.first {
					return errStopReplay
				}
				e, derr := DecodeEvent(payload)
				if derr != nil {
					return derr
				}
				e.Index = index
				return fn(e)
			})
			if err != nil && !errors.Is(err, errStopReplay) {
				return err
			}
		}
		for i, loc := range res.recs {
			e, err := DecodeEvent(res.record(loc))
			if err != nil {
				return err
			}
			e.Index = res.first + uint64(i)
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush syncs every stripe journal: when it returns, every event
// recorded before the call is on stable storage (and any append or
// query failure since the last Flush is reported).
func (s *Store) Flush() error {
	var first error
	for _, st := range s.stripes {
		st.mu.Lock()
		err := st.lastErr
		st.lastErr = nil
		st.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
		if err := st.journal.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close closes every stripe journal. Queries remain answerable from
// the resident window afterwards (evicted ranges need the journals and
// are no longer reachable); an event recorded after Close fails.
func (s *Store) Close() error {
	var first error
	for _, st := range s.stripes {
		if err := st.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StoreStats reports the store's shape and size for monitoring.
type StoreStats struct {
	// Stripes is the stripe count.
	Stripes int `json:"stripes"`
	// Window is the per-stripe resident window (0 = unbounded).
	Window int `json:"window"`
	// Events is the total number of recorded events.
	Events int `json:"events"`
	// Resident is the number of events currently held in RAM.
	Resident int `json:"resident"`
	// ResidentBytes is the heap the resident windows hold: their packed
	// record chunks and record locators.
	ResidentBytes int `json:"residentBytes"`
	// Evicted is the number of events only reachable via the journals.
	Evicted int `json:"evicted"`
	// RecoverySeconds is the wall time of the boot-time journal replay:
	// the open of the store, every stripe's replay within it.
	RecoverySeconds float64 `json:"recoverySeconds"`
	// RecoveredEvents is how many events that replay found.
	RecoveredEvents int `json:"recoveredEvents"`
	// IndexedSegments is how many sealed journal segments the replay took
	// from their index files (wal-<base>.idx) without counting their
	// records.
	IndexedSegments int `json:"indexedSegments"`
	// ScannedSegments is how many segments the replay read to count
	// them: each journal's active segment, and every sealed one whose
	// index file was missing, damaged or stale.
	ScannedSegments int `json:"scannedSegments"`
	// IndexFallbacks is how many of those were sealed, each given a new
	// index file: 0 once every sealed segment has a valid one.
	IndexFallbacks int `json:"indexFallbacks"`
}

// Stats snapshots the store for monitoring.
func (s *Store) Stats() StoreStats {
	out := StoreStats{Stripes: len(s.stripes), Window: s.window,
		RecoverySeconds: s.recovery.Seconds(), RecoveredEvents: s.recovered}
	for _, st := range s.stripes {
		st.mu.RLock()
		out.Events += st.count
		out.Resident += st.res.n
		out.ResidentBytes += st.res.heapBytes()
		out.Evicted += st.evicted
		out.IndexedSegments += st.boot.indexed
		out.ScannedSegments += st.boot.scanned
		out.IndexFallbacks += st.boot.fallbacks
		st.mu.RUnlock()
	}
	return out
}
