// Package sim implements the discrete-event simulator of the BPMS. It
// runs the server's own wiring (core.Open: shard router, worklist,
// timer wheel, history) in memory under a virtual clock: cases arrive
// according to an arrival process, user tasks are served by simulated
// resources with sampled service times, and timers and work-item
// deadlines fire in virtual time, so a late task is reported as an
// sla.violation just as on a server. The simulator doubles as the workload generator for
// the micro-benchmarks (experiments F2, F3, T8 in bench_test.go) and as
// a what-if analysis tool (the "digital twin" use of classic BPMS suites).
package sim

import (
	"math"
	"math/rand"
	"time"
)

// Dist samples durations. Implementations must be deterministic given
// the *rand.Rand stream.
type Dist interface {
	// Sample draws one duration (never negative).
	Sample(r *rand.Rand) time.Duration
	// Mean returns the distribution mean.
	Mean() time.Duration
}

// Fixed is a constant duration.
type Fixed time.Duration

// Sample implements Dist.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// Mean implements Dist.
func (f Fixed) Mean() time.Duration { return time.Duration(f) }

// Exp is an exponential distribution with the given mean.
type Exp time.Duration

// Sample implements Dist.
func (e Exp) Sample(r *rand.Rand) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(e))
}

// Mean implements Dist.
func (e Exp) Mean() time.Duration { return time.Duration(e) }

// Uniform samples uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Int63n(int64(u.Hi-u.Lo)))
}

// Mean implements Dist.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

// Normal is a truncated-at-zero normal distribution.
type Normal struct {
	Mu    time.Duration
	Sigma time.Duration
}

// Sample implements Dist.
func (n Normal) Sample(r *rand.Rand) time.Duration {
	x := r.NormFloat64()*float64(n.Sigma) + float64(n.Mu)
	if x < 0 {
		x = 0
	}
	return time.Duration(x)
}

// Mean implements Dist (ignoring the small truncation bias).
func (n Normal) Mean() time.Duration { return n.Mu }

// Lognormal samples exp(N(mu, sigma)) scaled so the mean equals Mean.
type Lognormal struct {
	M     time.Duration // desired mean
	Shape float64       // sigma of the underlying normal (e.g. 0.5)
}

// Sample implements Dist.
func (l Lognormal) Sample(r *rand.Rand) time.Duration {
	// mean of lognormal = exp(mu + sigma^2/2); solve mu for target mean.
	mu := math.Log(float64(l.M)) - l.Shape*l.Shape/2
	return time.Duration(math.Exp(r.NormFloat64()*l.Shape + mu))
}

// Mean implements Dist.
func (l Lognormal) Mean() time.Duration { return l.M }
