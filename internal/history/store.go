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
// (StoreOptions.Window; 0 keeps everything). Queries that reach below
// the window are answered by replaying the stripe's journal prefix, so
// results are identical with and without eviction.
//
// Open: rebuilding a stripe costs O(journal bytes scanned) + O(window
// events decoded). Every record is read, but only those the window
// keeps are decoded and indexed; the ones below it are counted where
// they lie (see replay). Records decode in a single pass, the v2
// records AppendEncode writes and the v1 JSON records of older journals
// alike (decode.go); a v1 record in any other layout encoding/json
// reads still decodes, through it.
//
// Queries barrier on the async pipeline: every event enqueued before
// the query call is indexed before the query reads, preserving the
// read-your-writes behaviour of the previous synchronous store.
// Rebuilding the indexes from the journals on open makes the store
// fully recoverable.
type Store struct {
	stripes []*stripe
	window  int
	syncs   bool
}

// StoreOptions configures a striped store.
type StoreOptions struct {
	// Window bounds the number of events each stripe keeps resident in
	// RAM (0 = unbounded, the previous behaviour). Older events remain
	// queryable through journal replay.
	Window int
	// QueueSize is the per-stripe async queue capacity (default 1024).
	// A full queue applies backpressure to Enqueue callers.
	QueueSize int
	// Sync disables the async pipeline: Append and Enqueue write
	// through synchronously on the caller's goroutine (still with the
	// disk append outside the index lock). Tools that drive virtual
	// time (the simulator) use this to avoid background goroutines.
	Sync bool
	// Metrics, when set, instruments each stripe's queue depth and
	// enqueue-to-commit latency and counts its decode fallbacks.
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

	// Async pipeline (nil queue in Sync mode).
	queue     chan appendReq
	committed chan struct{} // closed when the committer exits
	closed    atomic.Bool
	senders   sync.WaitGroup
	closeOnce sync.Once

	// appendMu serializes the encode→append→index sequence in Sync
	// mode so index order matches journal order; it is never held
	// while readers hold mu.
	appendMu sync.Mutex

	mu      sync.RWMutex
	cond    *sync.Cond // on mu: signalled when doneSeq advances
	enqSeq  atomic.Uint64
	doneSeq uint64 // guarded by mu

	window     int
	ring       []*Event // resident window, oldest first
	ramFirst   uint64   // journal index of ring[0] (0 when empty)
	evicted    int      // events dropped from RAM (journal-only)
	byInstance map[string][]*Event
	// instCount is the cumulative event count per instance ever seen
	// (unaffected by eviction): when an instance's resident slice is
	// shorter than its count, the difference lives in the journal.
	instCount map[string]int
	byType    map[EventType]int
	count     int
	lastErr   error // first append failure (surfaced by Flush)

	// Boot replay, fixed once NewStriped returns.
	recovery  time.Duration
	recovered int

	// Committer scratch (single committer goroutine per stripe).
	encBuf  []byte
	idxBuf  []uint64
	errsBuf []error
}

// NewStore opens a single-stripe store with default options over the
// given journal, replaying any existing records to rebuild the query
// indexes.
func NewStore(j storage.Journal) (*Store, error) {
	return NewStriped([]storage.Journal{j}, StoreOptions{})
}

// NewStriped opens a store over one journal per stripe, replaying each
// journal to rebuild that stripe's indexes.
func NewStriped(journals []storage.Journal, opts StoreOptions) (*Store, error) {
	if len(journals) == 0 {
		return nil, fmt.Errorf("history: no journals")
	}
	opts = opts.withDefaults()
	s := &Store{window: opts.Window, syncs: opts.Sync}
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
	if !opts.Sync {
		for _, st := range s.stripes {
			st.queue = make(chan appendReq, opts.QueueSize)
			st.committed = make(chan struct{})
			go st.run()
		}
	}
	return s, nil
}

// newStripe returns an empty stripe over j, nothing replayed yet.
func newStripe(j storage.Journal, window int, metrics obs.HistoryStripeMetrics) *stripe {
	st := &stripe{
		journal:    j,
		metrics:    metrics,
		window:     window,
		byInstance: map[string][]*Event{},
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

// replay rebuilds the stripe's indexes from its journal. Only the
// records the window keeps — the last `window` of them — are decoded
// and indexed. Indexing an earlier record would only see it evicted
// again before the replay ends, so it is counted instead: its type and
// instance ID are read in place and bump the cumulative counters, and
// nothing is built. The stripe ends up as if every record had gone
// through indexLocked.
func (st *stripe) replay() error {
	began := time.Now()
	var cut uint64 // records at or below cut are counted, not indexed
	if last := st.journal.LastIndex(); st.window > 0 && last > uint64(st.window) {
		cut = last - uint64(st.window)
	}
	types, insts, prefix := tally{}, tally{}, 0
	err := st.journal.Replay(1, func(index uint64, payload []byte) error {
		if index > cut {
			e, err := st.decode(payload)
			if err != nil {
				return err
			}
			e.Index = index
			st.indexLocked(e)
			return nil
		}
		typ, inst, ok := peekEvent(payload)
		if !ok {
			e, err := st.decode(payload)
			if err != nil {
				return err
			}
			typ, inst = []byte(e.Type), []byte(e.InstanceID)
		}
		types.add(typ)
		if len(inst) > 0 {
			insts.add(inst)
		}
		prefix++
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
	st.count += prefix
	st.evicted += prefix
	st.recovery, st.recovered = time.Since(began), st.count
	return nil
}

// decode is DecodeEvent for the stripe's replays; it counts the v1
// records that needed encoding/json.
func (st *stripe) decode(payload []byte) (*Event, error) {
	e, fallback, err := decodeEvent(payload)
	if fallback {
		st.metrics.Fallback.Inc()
	}
	return e, err
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
	st := s.stripeFor(e.InstanceID)
	if st.queue == nil {
		_ = st.appendSync(e)
		return
	}
	st.enqueue(appendReq{ev: e})
}

// Append records an event and returns once it is encoded, appended to
// the stripe journal, and indexed. The event's Index field is set to
// the assigned journal index.
func (s *Store) Append(e *Event) error {
	st := s.stripeFor(e.InstanceID)
	if st.queue == nil {
		return st.appendSync(e)
	}
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
	}
}

// commit encodes and journal-appends a batch (no index lock held — a
// slow disk append never blocks EventsOf/Count readers), then indexes
// it under the lock and releases synchronous waiters.
func (st *stripe) commit(batch []appendReq) {
	if cap(st.idxBuf) < len(batch) {
		st.idxBuf = make([]uint64, len(batch))
		st.errsBuf = make([]error, len(batch))
	}
	idxs := st.idxBuf[:len(batch)]
	errs := st.errsBuf[:len(batch)]
	for i, req := range batch {
		buf, err := AppendEncode(st.encBuf[:0], req.ev)
		st.encBuf = buf[:0] // keep the grown capacity for the next event
		if err == nil {
			idxs[i], err = st.journal.Append(buf)
		}
		errs[i] = err
	}
	st.mu.Lock()
	for i, req := range batch {
		if errs[i] == nil {
			req.ev.Index = idxs[i]
			st.indexLocked(req.ev)
		} else if st.lastErr == nil {
			st.lastErr = errs[i]
		}
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

// appendSync is the synchronous write-through path (Sync mode). The
// encode and the disk append run outside the index mutex; appendMu
// keeps index order equal to journal order without ever being held
// while readers hold mu.
func (st *stripe) appendSync(e *Event) error {
	buf, err := AppendEncode(nil, e)
	if err != nil {
		st.recordErr(err)
		return err
	}
	st.appendMu.Lock()
	idx, err := st.journal.Append(buf)
	if err != nil {
		st.appendMu.Unlock()
		st.recordErr(err)
		return err
	}
	st.mu.Lock()
	e.Index = idx
	st.indexLocked(e)
	st.mu.Unlock()
	st.appendMu.Unlock()
	return nil
}

// recordErr keeps the first append failure so Flush surfaces it even
// when the caller (Enqueue's fire-and-forget paths) discards it.
func (st *stripe) recordErr(err error) {
	st.mu.Lock()
	if st.lastErr == nil {
		st.lastErr = err
	}
	st.mu.Unlock()
}

// indexLocked adds one event to the stripe indexes, evicting the
// oldest resident events past the window. Counters (count, byType,
// instances) are cumulative and unaffected by eviction.
func (st *stripe) indexLocked(e *Event) {
	if len(st.ring) == 0 {
		st.ramFirst = e.Index
	}
	st.ring = append(st.ring, e)
	if e.InstanceID != "" {
		bi, ok := st.byInstance[e.InstanceID]
		if !ok {
			// A workflow instance emits tens of events; starting at a
			// realistic capacity skips the early doubling chain that
			// otherwise dominates index allocations.
			bi = make([]*Event, 0, 16)
		}
		st.byInstance[e.InstanceID] = append(bi, e)
		st.instCount[e.InstanceID]++
	}
	st.byType[e.Type]++
	st.count++
	if st.window <= 0 {
		return
	}
	for len(st.ring) > st.window {
		old := st.ring[0]
		st.ring[0] = nil
		st.ring = st.ring[1:]
		st.evicted++
		if old.InstanceID != "" {
			bi := st.byInstance[old.InstanceID]
			if len(bi) > 0 && bi[0] == old {
				bi[0] = nil
				bi = bi[1:]
				if len(bi) == 0 {
					delete(st.byInstance, old.InstanceID)
				} else {
					st.byInstance[old.InstanceID] = bi
				}
			}
		}
		if len(st.ring) > 0 {
			st.ramFirst = st.ring[0].Index
		} else {
			st.ramFirst = 0
		}
	}
}

// barrier waits until every event enqueued before the call is indexed,
// giving queries read-your-writes over the async pipeline.
func (st *stripe) barrier() {
	if st.queue == nil {
		return
	}
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

// EventsOf returns the events of one instance in append order. The
// returned slice is a copy; the events themselves are shared and must
// not be mutated. When part of the instance's history has been evicted
// from the RAM window, the stripe's journal prefix is replayed, so the
// answer is identical with and without eviction. Should that replay
// fail (journal error, store closed), only the resident suffix is
// returned and the failure is recorded for the next Flush to report.
func (s *Store) EventsOf(instanceID string) []*Event {
	st := s.stripeFor(instanceID)
	st.barrier()
	st.mu.RLock()
	ram := append([]*Event(nil), st.byInstance[instanceID]...)
	total := st.instCount[instanceID]
	ramFirst := st.ramFirst
	st.mu.RUnlock()
	if len(ram) == total {
		// Fully resident (or unknown): no journal replay needed, even
		// when the stripe has evicted other instances' events.
		return ram
	}
	// Part of the stripe's history lives only in the journal: replay
	// indexes below the resident window and keep this instance's
	// events. The RAM slice is a contiguous suffix, so prefix+suffix
	// is the complete ordered history.
	var out []*Event
	err := st.journal.Replay(1, func(index uint64, payload []byte) error {
		if ramFirst != 0 && index >= ramFirst {
			return errStopReplay
		}
		// Other instances' records are skipped undecoded.
		if _, inst, ok := peekEvent(payload); ok && string(inst) != instanceID {
			return nil
		}
		e, derr := st.decode(payload)
		if derr != nil {
			return derr
		}
		if e.InstanceID != instanceID {
			return nil
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
// ordered but stripes are concatenated). Evicted prefixes are replayed
// from the journals.
func (s *Store) All(fn func(*Event) error) error {
	for _, st := range s.stripes {
		st.barrier()
		st.mu.RLock()
		ring := append([]*Event(nil), st.ring...)
		evicted := st.evicted
		ramFirst := st.ramFirst
		st.mu.RUnlock()
		if evicted > 0 {
			err := st.journal.Replay(1, func(index uint64, payload []byte) error {
				if ramFirst != 0 && index >= ramFirst {
					return errStopReplay
				}
				e, derr := st.decode(payload)
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
		for _, e := range ring {
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
			if st.queue == nil {
				return
			}
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
		out.Resident += len(st.ring)
		out.Evicted += st.evicted
		out.Pending += int(enq - done)
		st.mu.RUnlock()
		out.RecoverySeconds += st.recovery.Seconds()
		out.RecoveredEvents += st.recovered
	}
	return out
}
