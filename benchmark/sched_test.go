package main

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A turn is handed its due time whatever time it was actually sent, a late
// turn is sent at once, and the lag is the lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	begin := time.Unix(1000, 0)
	clk := &fakeClock{now: begin}
	turns := []Turn{{DueUS: 10000}, {DueUS: 20000}, {DueUS: 30000}, {DueUS: 200000}}
	var dues, sent []time.Duration
	lags := runOpenLoop(context.Background(), clk, begin, turns, 1, func(_ int, t Turn, due time.Time) {
		dues = append(dues, due.Sub(begin))
		sent = append(sent, clk.Now().Sub(begin))
		clk.Sleep(25 * time.Millisecond) // the server takes 25 ms per turn
	})
	ms := time.Millisecond
	if want := []time.Duration{10 * ms, 20 * ms, 30 * ms, 200 * ms}; !reflect.DeepEqual(dues, want) {
		t.Errorf("due times %v, want %v", dues, want)
	}
	if want := []time.Duration{10 * ms, 35 * ms, 60 * ms, 200 * ms}; !reflect.DeepEqual(sent, want) {
		t.Errorf("send times %v, want %v", sent, want)
	}
	if want := []time.Duration{0, 15 * ms, 30 * ms, 0}; !reflect.DeepEqual(lags, want) {
		t.Errorf("lags %v, want %v", lags, want)
	}
}

func TestOpenLoopStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	begin := time.Unix(1000, 0)
	ran := 0
	lags := runOpenLoop(ctx, &fakeClock{now: begin}, begin, make([]Turn, 10), 1, func(int, Turn, time.Time) {
		ran++
		if ran == 3 {
			cancel()
		}
	})
	if ran != 3 || len(lags) != 3 {
		t.Errorf("ran %d turns, %d lags; want 3 and 3", ran, len(lags))
	}
}
