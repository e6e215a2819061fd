package timer

import (
	"sort"
	"sync"
	"time"

	"bpms/internal/obs"
)

// WheelService is a hashed timing wheel: timers hash into one of
// `slots` buckets by deadline tick; each advance sweeps only the
// buckets between the previous and the new time, firing entries whose
// deadline has passed. Insert and cancel are O(1); an advance is
// proportional to the buckets swept plus the timers fired, independent
// of the total number of pending timers — the property benchmarked in
// experiment F4.
type WheelService struct {
	mu       sync.Mutex
	tick     time.Duration
	slots    int
	buckets  []map[ID]*wheelEntry
	byID     map[ID]*wheelEntry
	nextID   ID
	lastTick int64 // last fully swept tick
	origin   time.Time
	started  bool
	lag      *obs.Histogram // fire lag (nil = uninstrumented)
}

// SetFireLag implements FireLagObserver.
func (w *WheelService) SetFireLag(h *obs.Histogram) { w.lag = h }

type wheelEntry struct {
	id   ID
	at   time.Time
	tick int64
	fn   func()
}

// NewWheelService creates a wheel with the given tick granularity and
// slot count (defaults: 10ms, 512 slots).
func NewWheelService(tick time.Duration, slots int) *WheelService {
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	if slots <= 0 {
		slots = 512
	}
	w := &WheelService{
		tick:    tick,
		slots:   slots,
		buckets: make([]map[ID]*wheelEntry, slots),
		byID:    map[ID]*wheelEntry{},
	}
	for i := range w.buckets {
		w.buckets[i] = map[ID]*wheelEntry{}
	}
	return w
}

func (w *WheelService) tickOf(t time.Time) int64 {
	return int64(t.Sub(w.origin) / w.tick)
}

// entryTickOf rounds a deadline up to the next tick boundary so an
// entry never fires before its wall-clock deadline.
func (w *WheelService) entryTickOf(t time.Time) int64 {
	d := t.Sub(w.origin)
	tk := int64(d / w.tick)
	if d%w.tick != 0 {
		tk++
	}
	return tk
}

// Schedule implements Service.
func (w *WheelService) Schedule(at time.Time, fn func()) ID {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextID++
	id := w.nextID
	w.scheduleLocked(id, at, fn)
	return id
}

// scheduleID inserts an entry under a caller-assigned ID. The striped
// wheel allocates IDs from one global sequence (so a timer's stripe is
// recoverable from its ID alone); IDs passed here must be unique
// within this wheel.
func (w *WheelService) scheduleID(id ID, at time.Time, fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.scheduleLocked(id, at, fn)
}

// anchor fixes the wheel's origin, a no-op once started. The striped
// wheel anchors every stripe at its first schedule's deadline so all
// stripes agree on tick boundaries — otherwise a stripe whose first
// timer arrives late would clamp already-due deadlines forward and
// fire them later than a single wheel would.
func (w *WheelService) anchor(at time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		w.origin = at
		w.lastTick = w.tickOf(at) - 1
		w.started = true
	}
}

func (w *WheelService) scheduleLocked(id ID, at time.Time, fn func()) {
	if !w.started {
		// Anchor the wheel's origin at the first schedule.
		w.origin = at
		w.lastTick = w.tickOf(at) - 1
		w.started = true
	}
	e := &wheelEntry{id: id, at: at, tick: w.entryTickOf(at), fn: fn}
	if e.tick <= w.lastTick {
		e.tick = w.lastTick + 1 // past deadlines fire on next advance
	}
	w.buckets[int(e.tick%int64(w.slots))][id] = e
	w.byID[id] = e
}

// Cancel implements Service.
func (w *WheelService) Cancel(id ID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.byID[id]
	if !ok {
		return false
	}
	delete(w.byID, id)
	delete(w.buckets[int(e.tick%int64(w.slots))], id)
	return true
}

// Pending implements Service.
func (w *WheelService) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.byID)
}

// AdvanceTo implements Service: sweeps all ticks in (lastTick, nowTick]
// and fires due entries in deadline order.
func (w *WheelService) AdvanceTo(now time.Time) int {
	return fireDue(w.collectDue(now), now, w.lag)
}

// Overdue implements OverdueReporter: pending entries whose deadline
// is at or before now, without firing or removing them. Like
// collectDue it visits only the buckets behind the swept tick, so the
// walk is O(buckets spanned + overdue entries).
func (w *WheelService) Overdue(now time.Time) []Overdue {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		return nil
	}
	nowTick := w.tickOf(now)
	if nowTick <= w.lastTick {
		return nil
	}
	var out []Overdue
	span := nowTick - w.lastTick
	if span > int64(w.slots) {
		span = int64(w.slots)
	}
	for i := int64(1); i <= span; i++ {
		tk := w.lastTick + i
		for _, e := range w.buckets[int(tk%int64(w.slots))] {
			if e.tick <= nowTick && !e.at.After(now) {
				out = append(out, Overdue{ID: e.id, At: e.at})
			}
		}
	}
	return out
}

// collectDue removes and returns (unsorted) every entry due at or
// before now, advancing the wheel's swept tick. Shared by AdvanceTo
// and the striped wheel's merged advance, which gathers due entries
// from all stripes before establishing the global firing order.
func (w *WheelService) collectDue(now time.Time) []*wheelEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		return nil
	}
	nowTick := w.tickOf(now)
	if nowTick <= w.lastTick {
		return nil
	}
	var due []*wheelEntry
	// If the advance spans more than a full wheel rotation, every
	// bucket is swept exactly once.
	span := nowTick - w.lastTick
	if span > int64(w.slots) {
		span = int64(w.slots)
	}
	for i := int64(1); i <= span; i++ {
		tk := w.lastTick + i
		bucket := w.buckets[int(tk%int64(w.slots))]
		for id, e := range bucket {
			if e.tick <= nowTick {
				due = append(due, e)
				delete(bucket, id)
				delete(w.byID, id)
			}
		}
	}
	w.lastTick = nowTick
	return due
}

// fireDue fires collected entries in (deadline, id) order outside any
// wheel lock and returns the number fired. now is the advance time;
// when lag is instrumented every entry observes fire-time minus
// deadline (clamped at zero — entries rounded up to a tick boundary
// can fire within the same advance that makes them due).
func fireDue(due []*wheelEntry, now time.Time, lag *obs.Histogram) int {
	sort.Slice(due, func(a, b int) bool {
		if !due[a].at.Equal(due[b].at) {
			return due[a].at.Before(due[b].at)
		}
		return due[a].id < due[b].id
	})
	for _, e := range due {
		if lag != nil {
			d := now.Sub(e.at)
			if d < 0 {
				d = 0
			}
			lag.Observe(d)
		}
		e.fn()
	}
	return len(due)
}
