package history

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/fnv1a"
	"bpms/internal/obs"
	"bpms/internal/storage"
)

// Store is the audit-event store: events are appended durably to
// journals and indexed in memory for queries.
//
// The store is striped: events hash by instance ID (FNV-1a, mirroring
// the shard router) onto N stripes, each owning its own journal,
// in-memory index, and locks, so audit traffic on different instances
// never contends on one global mutex. Within a stripe a dedicated
// committer goroutine drains a bounded queue, encodes events into a
// reusable buffer, appends them to the journal OUTSIDE the index lock
// (a slow fsync never blocks readers), and then indexes the batch.
// Enqueue is therefore a non-blocking hand-off on the engine's
// transition path; it applies backpressure (blocks, never drops) when
// a stripe's queue is full.
//
// Ordering: events of one instance always land on one stripe and are
// enqueued in emission order, so per-instance order is preserved both
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
// nothing. Every record is read; its type and instance ID are peeked
// where they lie to bump the cumulative counters, and the last `window`
// records are copied into the resident window as they are (see replay).
// A journal holding a record that is not v2 does not open (decode.go).
//
// Queries barrier on the async pipeline: every event enqueued before
// the query call is indexed before the query reads, preserving the
// read-your-writes behaviour of the previous synchronous store.
// Rebuilding the indexes from the journals on open makes the store
// fully recoverable.
type Store struct {
	stripes []*stripe
	window  int
}

// StoreOptions configures a striped store.
type StoreOptions struct {
	// Window bounds the number of events each stripe keeps resident in
	// RAM (0 = unbounded), as their packed journal records (about 60 B
	// and a locator each for a typical event). Older events remain
	// queryable through journal replay.
	Window int
	// QueueSize is the per-stripe async queue capacity (default 1024).
	// A full queue applies backpressure to Enqueue callers.
	QueueSize int
	// Metrics, when set, instruments each stripe's queue depth and
	// enqueue-to-commit latency.
	Metrics *obs.Metrics
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.Window < 0 {
		o.Window = 0
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	return o
}

// commitBatchMax bounds how many queued events one committer pass
// encodes and appends before indexing them.
const commitBatchMax = 256

// errStopReplay is the internal sentinel that ends a bounded journal
// replay early once the in-RAM window is reached.
var errStopReplay = errors.New("history: stop replay")

// appendReq is one queued event; err is non-nil for synchronous
// Append callers awaiting the result. at is the enqueue instant when
// the stripe is instrumented (zero otherwise).
type appendReq struct {
	ev  *Event
	err chan error
	at  time.Time
}

type stripe struct {
	journal storage.Journal
	metrics obs.HistoryStripeMetrics

	// Async pipeline.
	queue     chan appendReq
	committed chan struct{} // closed when the committer exits
	closed    atomic.Bool
	senders   sync.WaitGroup
	closeOnce sync.Once

	mu      sync.RWMutex
	cond    *sync.Cond // on mu: signalled when doneSeq advances
	enqSeq  atomic.Uint64
	doneSeq uint64 // guarded by mu

	res        packedWindow // resident records, oldest first
	evicted    int          // events dropped from RAM (journal-only)
	byInstance map[string]instRecords
	// instCount is the cumulative event count per instance ever seen
	// (unaffected by eviction): when an instance's resident records are
	// fewer than its count, the difference lives in the journal.
	instCount map[string]int
	byType    map[EventType]int
	count     int
	lastErr   error // first append failure (surfaced by Flush)

	// Boot replay, fixed once NewStriped returns.
	recovery  time.Duration
	recovered int

	// Encode scratch, the committer's. The window copies what it keeps,
	// so the buffer is reused from event to event.
	encBuf  []byte
	idxBuf  []uint64
	errsBuf []error
	endsBuf []int
}

// instRecords is one instance's resident records: their journal
// indexes, oldest first. It carries the instance ID so the eviction
// path, which reads the ID from a record's bytes, can rewrite the entry
// under the map's own key instead of allocating a new one.
type instRecords struct {
	id      string
	indexes []uint64
}

// NewStriped opens a store over one journal per stripe, replaying each
// journal to rebuild that stripe's indexes.
func NewStriped(journals []storage.Journal, opts StoreOptions) (*Store, error) {
	if len(journals) == 0 {
		return nil, fmt.Errorf("history: no journals")
	}
	opts = opts.withDefaults()
	s := &Store{window: opts.Window}
	// Phase 1: replay every journal. No committer goroutine starts
	// until all stripes recovered, so an error here leaks nothing.
	for i, j := range journals {
		st := newStripe(j, opts.Window, opts.Metrics.HistoryStripe(i))
		if err := st.replay(); err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, st)
	}
	// Phase 2: start the pipeline.
	for _, st := range s.stripes {
		st.queue = make(chan appendReq, opts.QueueSize)
		st.committed = make(chan struct{})
		go st.run()
	}
	return s, nil
}

// newStripe returns an empty stripe over j, nothing replayed yet.
func newStripe(j storage.Journal, window int, metrics obs.HistoryStripeMetrics) *stripe {
	st := &stripe{
		journal:    j,
		metrics:    metrics,
		res:        packedWindow{limit: window},
		byInstance: map[string]instRecords{},
		instCount:  map[string]int{},
		byType:     map[EventType]int{},
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// tally counts occurrences by key, allocating only for a key's first
// occurrence (a lookup by string(bytes) does not allocate; an
// assignment to a map[string]int would, every time).
type tally map[string]*int

func (t tally) add(key []byte) {
	if n := t[string(key)]; n != nil {
		*n++
		return
	}
	n := 1
	t[string(key)] = &n
}

// replay rebuilds the stripe's indexes from its journal and decodes
// nothing. Every record's type and instance ID are read in place and
// bump the cumulative counters; the records the window keeps — the last
// `window` of them — are then copied into it as they are. The stripe
// ends up as if every record had gone through indexLocked.
func (st *stripe) replay() error {
	began := time.Now()
	var cut uint64 // records at or below cut are counted, not kept
	if last := st.journal.LastIndex(); st.res.limit > 0 && last > uint64(st.res.limit) {
		cut = last - uint64(st.res.limit)
	}
	types, insts, prefix, total := tally{}, tally{}, 0, 0
	err := st.journal.Replay(1, func(index uint64, payload []byte) error {
		typ, inst, err := peekEvent(payload)
		if err != nil {
			return fmt.Errorf("history: replay record %d: %w", index, err)
		}
		types.add(typ)
		if len(inst) > 0 {
			insts.add(inst)
		}
		total++
		if index <= cut {
			prefix++
			return nil
		}
		st.keepLocked(index, payload, st.instanceKey(inst))
		return nil
	})
	if err != nil {
		return err
	}
	for typ, n := range types {
		st.byType[EventType(typ)] += *n
	}
	for inst, n := range insts {
		st.instCount[inst] += *n
	}
	st.count += total
	st.evicted += prefix
	st.recovery, st.recovered = time.Since(began), st.count
	return nil
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

// Enqueue hands an event to the store without waiting for it to be
// encoded, appended, or indexed — the engine's audit hot path. Events
// of one instance keep their emission order. When the stripe's queue
// is full the call blocks (backpressure; events are never dropped);
// failures past the hand-off are best-effort and surface via Flush.
// The event must not be mutated by the caller after Enqueue.
func (s *Store) Enqueue(e *Event) {
	s.stripeFor(e.InstanceID).enqueue(appendReq{ev: e})
}

// Append records an event and returns once it is encoded, appended to
// the stripe journal, and indexed. The event's Index field is set to
// the assigned journal index.
func (s *Store) Append(e *Event) error {
	st := s.stripeFor(e.InstanceID)
	errCh := make(chan error, 1)
	if !st.enqueue(appendReq{ev: e, err: errCh}) {
		return storage.ErrClosed
	}
	return <-errCh
}

// enqueue reserves a pipeline slot and sends. It reports false when
// the store is closed.
func (st *stripe) enqueue(req appendReq) bool {
	st.senders.Add(1)
	defer st.senders.Done()
	if st.closed.Load() {
		return false
	}
	req.at = st.metrics.Commit.Start()
	st.metrics.Depth.Add(1)
	st.enqSeq.Add(1)
	st.queue <- req
	return true
}

// run is the stripe committer: it drains the queue in batches,
// encodes and appends outside the index lock, then indexes the batch
// and wakes barrier waiters.
func (st *stripe) run() {
	defer close(st.committed)
	batch := make([]appendReq, 0, commitBatchMax)
	for req := range st.queue {
		batch = append(batch[:0], req)
	gather:
		for len(batch) < commitBatchMax {
			select {
			case more, ok := <-st.queue:
				if !ok {
					break gather
				}
				batch = append(batch, more)
			default:
				break gather
			}
		}
		st.commit(batch)
		clear(batch) // the window kept copies: drop the events
	}
}

// commit encodes and journal-appends a batch (no index lock held — a
// slow disk append never blocks EventsOf/Count readers), then indexes
// it under the lock, copying each record into the window, and releases
// synchronous waiters. The batch's records are encoded back to back into
// one reused buffer, so the copies need no second encode.
func (st *stripe) commit(batch []appendReq) {
	if cap(st.idxBuf) < len(batch) {
		st.idxBuf = make([]uint64, len(batch))
		st.errsBuf = make([]error, len(batch))
		st.endsBuf = make([]int, len(batch))
	}
	idxs := st.idxBuf[:len(batch)]
	errs := st.errsBuf[:len(batch)]
	ends := st.endsBuf[:len(batch)]
	buf := st.encBuf[:0]
	for i, req := range batch {
		start := len(buf)
		var err error
		buf, err = AppendEncode(buf, req.ev)
		if err == nil {
			idxs[i], err = st.journal.Append(buf[start:])
		}
		if err != nil {
			buf = buf[:start]
		}
		errs[i], ends[i] = err, len(buf)
	}
	st.encBuf = buf[:0] // keep the grown capacity for the next batch
	st.mu.Lock()
	start := 0
	for i, req := range batch {
		if errs[i] == nil {
			req.ev.Index = idxs[i]
			st.indexLocked(idxs[i], buf[start:ends[i]], req.ev.Type, req.ev.InstanceID)
		} else if st.lastErr == nil {
			st.lastErr = errs[i]
		}
		start = ends[i]
	}
	st.doneSeq += uint64(len(batch))
	st.cond.Broadcast()
	st.mu.Unlock()
	st.metrics.Depth.Add(-int64(len(batch)))
	for i, req := range batch {
		st.metrics.Commit.Since(req.at)
		if req.err != nil {
			req.err <- errs[i]
		}
	}
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
// to the stripe indexes. Counters (count, byType, instances) are
// cumulative and unaffected by eviction.
func (st *stripe) indexLocked(index uint64, rec []byte, typ EventType, inst string) {
	st.keepLocked(index, rec, inst)
	if inst != "" {
		st.instCount[inst]++
	}
	st.byType[typ]++
	st.count++
}

// keepLocked copies a record into the resident window, evicting the
// oldest resident record when the window is full. A journal append that
// failed after taking an index leaves a gap; the window holds contiguous
// indexes, so it is emptied first and the journal serves what it held.
func (st *stripe) keepLocked(index uint64, rec []byte, inst string) {
	if st.res.n > 0 && index != st.res.next() {
		for st.res.n > 0 {
			st.evictLocked()
		}
	}
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
	fields, _ := scan(rec)
	inst := fields.strs[instanceField]
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

// barrier waits until every event enqueued before the call is indexed,
// giving queries read-your-writes over the async pipeline.
func (st *stripe) barrier() {
	target := st.enqSeq.Load()
	st.mu.Lock()
	for st.doneSeq < target {
		st.cond.Wait()
	}
	st.mu.Unlock()
}

// Count returns the total number of events (including evicted ones).
func (s *Store) Count() int {
	total := 0
	for _, st := range s.stripes {
		st.barrier()
		st.mu.RLock()
		total += st.count
		st.mu.RUnlock()
	}
	return total
}

// CountByType returns the number of events of the given type.
func (s *Store) CountByType(t EventType) int {
	total := 0
	for _, st := range s.stripes {
		st.barrier()
		st.mu.RLock()
		total += st.byType[t]
		st.mu.RUnlock()
	}
	return total
}

// InstanceIDs returns all instance IDs with at least one event, sorted.
func (s *Store) InstanceIDs() []string {
	var out []string
	for _, st := range s.stripes {
		st.barrier()
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
	st.barrier()
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
	err := st.journal.Replay(1, func(index uint64, payload []byte) error {
		if ramFirst != 0 && index >= ramFirst {
			return errStopReplay
		}
		// Other instances' records are skipped undecoded.
		if _, inst, err := peekEvent(payload); err == nil && string(inst) != instanceID {
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
		st.barrier()
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

// Flush drains the async pipeline and syncs every stripe journal:
// when it returns, every event enqueued before the call is on stable
// storage (and any async append failure since the last Flush is
// reported).
func (s *Store) Flush() error {
	var first error
	for _, st := range s.stripes {
		st.barrier()
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

// Close drains and stops the committer goroutines and closes every
// stripe journal. Events enqueued before Close are appended; queries
// remain answerable from the resident window afterwards (evicted
// ranges need the journals and are no longer reachable).
func (s *Store) Close() error {
	var first error
	for _, st := range s.stripes {
		st.closeOnce.Do(func() {
			st.closed.Store(true)
			st.senders.Wait()
			close(st.queue)
			<-st.committed
		})
		if err := st.journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StoreStats reports the pipeline's shape and load for monitoring.
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
	// Pending is the number of enqueued events not yet indexed.
	Pending int `json:"pending"`
	// RecoverySeconds is how long the boot-time journal replay took,
	// summed over the stripes (they replay one after another).
	RecoverySeconds float64 `json:"recoverySeconds"`
	// RecoveredEvents is how many events that replay found.
	RecoveredEvents int `json:"recoveredEvents"`
}

// Stats snapshots the store without waiting for the pipeline to drain
// (monitoring must not block behind a busy committer).
func (s *Store) Stats() StoreStats {
	out := StoreStats{Stripes: len(s.stripes), Window: s.window}
	for _, st := range s.stripes {
		st.mu.RLock()
		done := st.doneSeq
		// Read enqSeq after doneSeq: enqueues may race ahead (pending
		// reads slightly high) but never behind (pending stays ≥ 0).
		enq := st.enqSeq.Load()
		out.Events += st.count
		out.Resident += st.res.n
		out.ResidentBytes += st.res.heapBytes()
		out.Evicted += st.evicted
		out.Pending += int(enq - done)
		st.mu.RUnlock()
		out.RecoverySeconds += st.recovery.Seconds()
		out.RecoveredEvents += st.recovered
	}
	return out
}
