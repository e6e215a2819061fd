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
	lastTick int64          // last fully swept tick
	lag      *obs.Histogram // fire lag (nil = uninstrumented)
}

// SetFireLag wires a fire-lag histogram: every fired entry observes
// fire-time minus deadline.
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

// epoch is where tick 0 starts. Ticks are fixed spans of absolute
// time, so an entry's tick does not depend on what was scheduled before
// it. A new wheel counts as swept up to the epoch: its first advance
// spans more than a rotation and visits every bucket, and a deadline
// before the epoch fires on that advance.
var epoch = time.Unix(0, 0)

func (w *WheelService) tickOf(t time.Time) int64 {
	return int64(t.Sub(epoch) / w.tick)
}

// entryTickOf rounds a deadline up to the next tick boundary so an
// entry never fires before its wall-clock deadline.
func (w *WheelService) entryTickOf(t time.Time) int64 {
	d := t.Sub(epoch)
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
	e := &wheelEntry{id: id, at: at, tick: w.entryTickOf(at), fn: fn}
	if e.tick <= w.lastTick {
		e.tick = w.lastTick + 1 // past deadlines fire on next advance
	}
	w.buckets[int(e.tick%int64(w.slots))][id] = e
	w.byID[id] = e
	return id
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
// and fires due entries in (deadline, id) order outside the lock. With
// a fire-lag histogram wired, every entry observes fire-time minus
// deadline (clamped at zero: entries rounded up to a tick boundary can
// fire within the same advance that makes them due).
func (w *WheelService) AdvanceTo(now time.Time) int {
	due := w.collectDue(now)
	sort.Slice(due, func(a, b int) bool {
		if !due[a].at.Equal(due[b].at) {
			return due[a].at.Before(due[b].at)
		}
		return due[a].id < due[b].id
	})
	for _, e := range due {
		if w.lag != nil {
			w.lag.Observe(max(now.Sub(e.at), 0))
		}
		e.fn()
	}
	return len(due)
}

// collectDue removes and returns (unsorted) every entry due at or
// before now, advancing the wheel's swept tick.
func (w *WheelService) collectDue(now time.Time) []*wheelEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
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
