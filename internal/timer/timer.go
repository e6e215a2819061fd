// Package timer implements the BPMS timer service: deadline callbacks
// for timer events, task due dates, and escalations: one hashed timing
// wheel under one lock, plus a virtual clock so engine tests and
// simulations run deterministically without sleeping. The tests keep a
// binary-heap service as the wheel's ordering oracle.
package timer

import (
	"sync"
	"time"
)

// ID identifies a scheduled timer within its service.
type ID uint64

// Clock abstracts time for the service. Production uses RealClock;
// tests and simulation use VirtualClock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// RealClock reads the system clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// VirtualClock is a manually advanced clock.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Set jumps the clock to t (must not move backwards).
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

// Service schedules one-shot deadline callbacks. Implementations are
// safe for concurrent use. Callbacks run synchronously inside the
// AdvanceTo (or background tick) that fires them, so they must be
// short; the engine hands them off to its own executor.
type Service interface {
	// Schedule registers fn to run once the service time reaches at.
	// Deadlines in the past fire on the next advance.
	Schedule(at time.Time, fn func()) ID
	// Cancel revokes a pending timer; it reports whether the timer was
	// still pending.
	Cancel(id ID) bool
	// AdvanceTo fires all timers with deadline <= now, in deadline
	// order, and returns the number fired.
	AdvanceTo(now time.Time) int
	// Pending returns the number of scheduled, unfired timers.
	Pending() int
}

// Runner drives a Service from a real clock in a background goroutine.
type Runner struct {
	svc    Service
	clock  Clock
	tick   time.Duration
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewRunner creates a runner that advances svc every tick.
func NewRunner(svc Service, clock Clock, tick time.Duration) *Runner {
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	return &Runner{svc: svc, clock: clock, tick: tick, stopCh: make(chan struct{})}
}

// Start launches the background ticker.
func (r *Runner) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.tick)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
				r.svc.AdvanceTo(r.clock.Now())
			}
		}
	}()
}

// Stop halts the ticker and waits for it to exit.
func (r *Runner) Stop() {
	close(r.stopCh)
	r.wg.Wait()
}
