package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the scheduler's view of time, so a test can drive it.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// runOpenLoop sends turns on their pre-generated schedule over a fixed
// number of connections. Each connection takes the next turn in order,
// waits until it is due and runs it; a turn whose connection was still
// busy is sent late, never dropped or re-timed. run gets the due time, so
// latency counts the wait a stall imposes on later turns, and the returned
// lags (send time minus due time, one per turn sent) say how late the
// generator ran.
func runOpenLoop(ctx context.Context, clk clock, begin time.Time, turns []Turn, conns int,
	run func(conn int, t Turn, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(turns))
	var next atomic.Int64
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(turns) {
					return
				}
				due := begin.Add(time.Duration(turns[i].DueUS) * time.Microsecond)
				if wait := due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				lags[i] = clk.Now().Sub(due)
				sent.Add(1)
				run(conn, turns[i], due)
			}
		}(c)
	}
	wg.Wait()
	// Turns are taken in order, so the ones sent are a prefix.
	return lags[:sent.Load()]
}
