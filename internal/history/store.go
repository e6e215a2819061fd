package history

import (
	"bytes"
	"errors"
	"fmt"
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
// Open: rebuilding a stripe costs O(journal bytes scanned) and decodes
// nothing. Every record is read; its instance ID is peeked where it lies
// to bump the cumulative counters, and the last `window` records are
// copied into the resident window as they are (see replay). The stripes
// replay at once, and a stripe whose journal outgrows its window reads
// the count-only prefix and the window's records on two goroutines, so
// an open spreads its scans over the cores: up to two per stripe run at
// a time, each with counters of its own until its stripe is done. A
// journal holding a record that is not v2 does not open (decode.go).
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

// errStopReplay is the internal sentinel that ends a bounded journal
// replay early once the in-RAM window is reached.
var errStopReplay = errors.New("history: stop replay")

type stripe struct {
	journal storage.Journal
	commit  *obs.Histogram // times append

	mu         sync.RWMutex
	res        packedWindow // resident records, oldest first
	evicted    int          // events dropped from RAM (journal-only)
	byInstance map[string]instRecords
	// instCount is the cumulative event count per instance ever seen
	// (unaffected by eviction): when an instance's resident records are
	// fewer than its count, the difference lives in the journal.
	instCount map[string]int
	count     int
	lastErr   error // first append failure (surfaced by Flush)

	// Encode scratch, guarded by mu. The window copies what it keeps,
	// so the buffer is reused from event to event.
	encBuf []byte
	idBuf  []byte // evictLocked's, for a numbered instance ID
}

// instRecords is one instance's resident records: their journal
// indexes, oldest first. It carries the instance ID so the eviction
// path, which reads the ID from a record's bytes, can rewrite the entry
// under the map's own key instead of allocating a new one.
type instRecords struct {
	id      string
	indexes []uint64
}

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
	s.recovery = time.Since(began)
	return s, nil
}

// newStripe returns an empty stripe over j, nothing replayed yet.
func newStripe(j storage.Journal, window int, commit *obs.Histogram) *stripe {
	return &stripe{
		journal:    j,
		commit:     commit,
		res:        packedWindow{limit: window},
		byInstance: map[string]instRecords{},
		instCount:  map[string]int{},
	}
}

// tally counts occurrences by key, allocating only for a key's first
// occurrence (a lookup by string(bytes) does not allocate; an
// assignment to a map[string]int would, every time).
type tally map[string]*int

// ref returns key's counter, adding it at 0.
func (t tally) ref(key []byte) *int {
	n := t[string(key)]
	if n == nil {
		n = new(int)
		t[string(key)] = n
	}
	return n
}

// replay rebuilds the stripe's indexes from its journal and decodes
// nothing. Every record's instance ID is read in place and counted; the
// records the window keeps — the last `window` of them, past cut — are
// also copied into it as they are. The stripe ends up as if every record
// had gone through indexLocked.
//
// When the journal outgrows the window, its two ranges are read at once:
// the records up to cut, only counted, on a goroutine of their own, and
// the rest, counted and kept, on the caller's. Each range is one serial
// scan with counters of its own, summed once both have ended (counts do
// not depend on the order they were taken in). A damaged record fails
// the replay with the error of the lowest index, as one scan would.
func (st *stripe) replay() error {
	var cut uint64 // records at or below cut are counted, not kept
	if last := st.journal.LastIndex(); st.res.limit > 0 && last > uint64(st.res.limit) {
		cut = last - uint64(st.res.limit)
	}
	prefix, rest := rangeCount{insts: tally{}}, rangeCount{st: st, insts: tally{}}
	var prefixErr error
	var wg sync.WaitGroup
	if cut > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefixErr = st.journal.Replay(1, func(index uint64, payload []byte) error {
				if index > cut {
					return errStopReplay
				}
				return prefix.add(index, payload)
			})
			prefix.flush()
		}()
	}
	err := st.journal.Replay(cut+1, rest.add)
	rest.flush()
	wg.Wait()
	if prefixErr != nil && !errors.Is(prefixErr, errStopReplay) {
		return prefixErr
	}
	if err != nil {
		return err
	}
	st.instCount = make(map[string]int, len(prefix.insts)+len(rest.insts))
	for _, c := range []*rangeCount{&prefix, &rest} {
		for inst, n := range c.insts {
			st.instCount[inst] += *n
		}
	}
	st.count = prefix.records + rest.records
	st.evicted = prefix.records
	return nil
}

// rangeCount counts one contiguous range of a stripe's journal run by
// run. A case's records mostly follow one another, so the records of
// one instance in a row, found by the bytes and number that hold its ID,
// are counted at once: the ID is spelled out and its counter looked up
// once per run. A kept range hands each record to keepLocked, as an
// append does, so one function fills the window and evicts.
type rangeCount struct {
	st      *stripe // when set, the range's records are kept in its window
	insts   tally   // events per instance
	records int

	r   record
	buf []byte // record.instance's
	run struct {
		seq  uint64 // the instance's number, 0 for a literal ID
		key  []byte // its process ID, or its literal ID, copied
		id   []byte // the instance ID, spelled out
		kept string // the ID the window keeps its records under
		n    int    // its records, 0 when no run is open
	}
}

// add peeks the record at index, counts it and, for a kept range, keeps
// it in the window. A record of another instance, or of none, ends the
// open run.
func (c *rangeCount) add(index uint64, payload []byte) error {
	r := &c.r
	if err := r.peek(payload); err != nil {
		return fmt.Errorf("history: replay record %d: %w", index, err)
	}
	c.records++
	key := r.strs[instanceField]
	if r.seq > 0 {
		key = r.strs[processField]
	}
	if c.run.n > 0 && (len(key) == 0 || r.seq != c.run.seq || !bytes.Equal(key, c.run.key)) {
		c.flush()
	}
	id := ""
	if len(key) > 0 {
		if c.run.n == 0 {
			c.run.seq, c.run.key = r.seq, append(c.run.key[:0], key...)
			c.run.id = append(c.run.id[:0], r.instance(&c.buf)...)
			if c.st != nil {
				c.run.kept = c.st.instanceKey(c.run.id)
			}
		}
		c.run.n++
		id = c.run.kept
	}
	if c.st != nil {
		c.st.keepLocked(index, payload, id)
	}
	return nil
}

// flush counts the open run, if any.
func (c *rangeCount) flush() {
	if c.run.n > 0 {
		*c.insts.ref(c.run.id) += c.run.n
		c.run.n = 0
	}
}

// instanceKey returns an instance ID read from a record as a string,
// the resident map's own key when the instance has records there (so
// only an instance's first resident record allocates).
func (st *stripe) instanceKey(inst []byte) string {
	if r, ok := st.byInstance[string(inst)]; ok {
		return r.id
	}
	return string(inst)
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
// to the stripe indexes. Counters (count, instances) are cumulative and
// unaffected by eviction.
func (st *stripe) indexLocked(index uint64, rec []byte, inst string) {
	st.keepLocked(index, rec, inst)
	if inst != "" {
		st.instCount[inst]++
	}
	st.count++
}

// keepLocked copies a record into the resident window, evicting the
// oldest resident record when the window is full. The window holds
// contiguous indexes: a journal append that fails takes no index
// (storage.Journal), so the next record kept is always the next one.
func (st *stripe) keepLocked(index uint64, rec []byte, inst string) {
	if st.res.full() {
		st.evictLocked()
	}
	st.res.add(index, rec)
	if inst == "" {
		return
	}
	r, ok := st.byInstance[inst]
	if !ok {
		// A workflow instance emits tens of events; starting at a
		// realistic capacity skips the early doubling chain that
		// otherwise dominates index allocations.
		r = instRecords{id: inst, indexes: make([]uint64, 0, 16)}
	}
	r.indexes = append(r.indexes, index)
	st.byInstance[r.id] = r
}

// evictLocked drops the oldest resident record, and its index from its
// instance's list, which it heads. The instance ID is read from the
// record in place, and the entry is rewritten under its own key, so
// eviction allocates nothing.
func (st *stripe) evictLocked() {
	index, rec := st.res.first, st.res.oldest()
	// The window keeps only records peek accepted, so scan does too.
	var fields record
	_ = fields.scan(rec)
	inst := fields.instance(&st.idBuf)
	if r, ok := st.byInstance[string(inst)]; ok && len(inst) > 0 && r.indexes[0] == index {
		if len(r.indexes) == 1 {
			delete(st.byInstance, r.id)
		} else {
			r.indexes = r.indexes[1:]
			st.byInstance[r.id] = r
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
		for id := range st.instCount {
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
	indexes := st.byInstance[instanceID].indexes
	total := st.instCount[instanceID]
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
		st.mu.RUnlock()
	}
	return out
}
