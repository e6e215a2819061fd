package timer

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func services() map[string]func() Service {
	return map[string]func() Service{
		"wheel": func() Service { return NewWheelService(time.Millisecond, 64) },
		"heap":  func() Service { return NewHeapService() },
	}
}

func TestScheduleAndFire(t *testing.T) {
	for name, mk := range services() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var fired []int
			for i := 1; i <= 5; i++ {
				i := i
				s.Schedule(t0.Add(time.Duration(i)*time.Second), func() {
					fired = append(fired, i)
				})
			}
			if s.Pending() != 5 {
				t.Fatalf("Pending = %d", s.Pending())
			}
			if n := s.AdvanceTo(t0.Add(2500 * time.Millisecond)); n != 2 {
				t.Fatalf("first advance fired %d, want 2", n)
			}
			if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
				t.Fatalf("fired = %v", fired)
			}
			if n := s.AdvanceTo(t0.Add(10 * time.Second)); n != 3 {
				t.Fatalf("second advance fired %d, want 3", n)
			}
			if s.Pending() != 0 {
				t.Errorf("Pending = %d after all fired", s.Pending())
			}
			// Firing order is deadline order.
			for i := 1; i < len(fired); i++ {
				if fired[i] < fired[i-1] {
					t.Errorf("out of order: %v", fired)
				}
			}
		})
	}
}

func TestCancel(t *testing.T) {
	for name, mk := range services() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			ran := false
			id := s.Schedule(t0.Add(time.Second), func() { ran = true })
			if !s.Cancel(id) {
				t.Fatal("Cancel reported not pending")
			}
			if s.Cancel(id) {
				t.Fatal("double Cancel should fail")
			}
			if s.Pending() != 0 {
				t.Errorf("Pending = %d", s.Pending())
			}
			s.AdvanceTo(t0.Add(time.Hour))
			if ran {
				t.Error("cancelled timer fired")
			}
		})
	}
}

func TestPastDeadlineFiresOnNextAdvance(t *testing.T) {
	for name, mk := range services() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			// Anchor the service's notion of time.
			s.Schedule(t0, func() {})
			s.AdvanceTo(t0.Add(time.Second))
			fired := false
			s.Schedule(t0.Add(-time.Hour), func() { fired = true }) // already past
			s.AdvanceTo(t0.Add(2 * time.Second))
			if !fired {
				t.Error("past-deadline timer did not fire")
			}
		})
	}
}

func TestAdvanceIsMonotonic(t *testing.T) {
	for name, mk := range services() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			count := 0
			s.Schedule(t0.Add(time.Second), func() { count++ })
			s.AdvanceTo(t0.Add(2 * time.Second))
			// Re-advancing to an earlier or equal time fires nothing.
			if n := s.AdvanceTo(t0.Add(time.Second)); n != 0 {
				t.Errorf("backward advance fired %d", n)
			}
			if count != 1 {
				t.Errorf("count = %d", count)
			}
		})
	}
}

func TestWheelLongSpanAdvance(t *testing.T) {
	// An advance spanning many rotations must still fire everything.
	s := NewWheelService(time.Millisecond, 8)
	total := 0
	for i := 0; i < 100; i++ {
		s.Schedule(t0.Add(time.Duration(i)*7*time.Millisecond), func() { total++ })
	}
	s.AdvanceTo(t0.Add(time.Hour))
	if total != 100 {
		t.Errorf("fired %d of 100 across rotations", total)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d", s.Pending())
	}
}

func TestWheelFarFutureNotFiredEarly(t *testing.T) {
	// Two timers a full rotation apart share a bucket; only the near
	// one fires.
	s := NewWheelService(time.Millisecond, 8)
	var near, far bool
	s.Schedule(t0.Add(2*time.Millisecond), func() { near = true })
	s.Schedule(t0.Add(10*time.Millisecond), func() { far = true }) // 2+8 ticks: same bucket
	s.AdvanceTo(t0.Add(3 * time.Millisecond))
	if !near {
		t.Error("near timer should fire")
	}
	if far {
		t.Error("far timer fired a rotation early")
	}
	s.AdvanceTo(t0.Add(11 * time.Millisecond))
	if !far {
		t.Error("far timer should fire after its rotation")
	}
}

func TestConcurrentScheduleAndAdvance(t *testing.T) {
	for name, mk := range services() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var fired int64
			var wg sync.WaitGroup
			const n = 500
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						s.Schedule(t0.Add(time.Duration(i%50)*time.Millisecond), func() {
							atomic.AddInt64(&fired, 1)
						})
					}
				}(g)
			}
			wg.Wait()
			s.AdvanceTo(t0.Add(time.Minute))
			if got := atomic.LoadInt64(&fired); got != 4*n {
				t.Errorf("fired %d of %d", got, 4*n)
			}
		})
	}
}

// TestWheelFiresWhateverTheScheduleOrder schedules a long timer before a
// short one: the short one must fire at its own deadline, not wait for
// the first deadline the wheel ever saw. A deadline already past when
// scheduled, before any advance, fires on the first one.
func TestWheelFiresWhateverTheScheduleOrder(t *testing.T) {
	w := NewWheelService(10*time.Millisecond, 512)
	var hourAt, secondAt, pastAt time.Time
	now := t0
	w.Schedule(t0.Add(time.Hour), func() { hourAt = now })
	w.Schedule(t0.Add(time.Second), func() { secondAt = now })
	w.Schedule(t0.Add(-time.Minute), func() { pastAt = now })
	for now.Before(t0.Add(time.Hour)) {
		now = now.Add(10 * time.Millisecond)
		w.AdvanceTo(now)
	}
	if want := t0.Add(10 * time.Millisecond); !pastAt.Equal(want) {
		t.Errorf("past timer fired at +%s, want +%s", pastAt.Sub(t0), want.Sub(t0))
	}
	if want := t0.Add(time.Second); !secondAt.Equal(want) {
		t.Errorf("1s timer fired at +%s, want +%s", secondAt.Sub(t0), want.Sub(t0))
	}
	if want := t0.Add(time.Hour); !hourAt.Equal(want) {
		t.Errorf("1h timer fired at +%s, want +%s", hourAt.Sub(t0), want.Sub(t0))
	}
}

// Property: the wheel and the heap fire exactly the same sets of
// timers after every advance of the same random schedule/advance
// interleavings — the heap acts as the oracle for the wheel.
func TestQuickWheelMatchesHeapOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		wheel := NewWheelService(time.Millisecond, 16)
		hp := NewHeapService()
		firedW := map[int]bool{}
		firedH := map[int]bool{}
		now := t0
		same := func() bool {
			if len(firedW) != len(firedH) {
				return false
			}
			for k := range firedW {
				if !firedH[k] {
					return false
				}
			}
			return wheel.Pending() == hp.Pending()
		}
		type pending struct{ w, h ID }
		active := map[int]pending{}
		for i := 0; i < 120; i++ {
			switch r.Intn(4) {
			case 0, 1: // schedule (at least one tick ahead: a wheel
				// cannot fire within the current tick, a heap can)
				at := now.Add(time.Duration(1+r.Intn(100)) * time.Millisecond)
				k := i
				w := wheel.Schedule(at, func() { firedW[k] = true })
				h := hp.Schedule(at, func() { firedH[k] = true })
				active[k] = pending{w, h}
			case 2: // advance by at least one tick
				now = now.Add(time.Duration(1+r.Intn(30)) * time.Millisecond)
				wheel.AdvanceTo(now)
				hp.AdvanceTo(now)
				if !same() {
					return false
				}
			case 3: // cancel a random active timer
				for k, p := range active {
					cw := wheel.Cancel(p.w)
					ch := hp.Cancel(p.h)
					if cw != ch {
						return false
					}
					delete(active, k)
					break
				}
			}
		}
		now = now.Add(time.Second)
		wheel.AdvanceTo(now)
		hp.AdvanceTo(now)
		return same()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(t0)
	if !c.Now().Equal(t0) {
		t.Error("initial time wrong")
	}
	c.Advance(time.Hour)
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Error("advance wrong")
	}
	c.Set(t0) // backwards: ignored
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Error("Set moved clock backwards")
	}
	c.Set(t0.Add(2 * time.Hour))
	if !c.Now().Equal(t0.Add(2 * time.Hour)) {
		t.Error("Set forward failed")
	}
}

func TestRunnerDrivesService(t *testing.T) {
	s := NewHeapService()
	var fired int64
	s.Schedule(time.Now().Add(20*time.Millisecond), func() { atomic.AddInt64(&fired, 1) })
	r := NewRunner(s, RealClock{}, 5*time.Millisecond)
	r.Start()
	defer r.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt64(&fired) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if atomic.LoadInt64(&fired) != 1 {
		t.Error("runner did not fire the timer")
	}
}
