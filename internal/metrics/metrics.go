// Package metrics provides the small statistics toolkit used by the
// simulator and the process miner: online summaries (Welford variance)
// and reservoir-sampled percentile estimation. Everything is
// deterministic given a seed and safe for single-writer use; wrap with
// a mutex for concurrent writers.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Summary accumulates count, mean, variance (Welford's online
// algorithm), min, and max of a stream of float64 observations.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddDuration records a duration in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (0 for fewer than 2 observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Sum returns n*mean.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// String renders "n=… mean=… std=… min=… max=…".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Reservoir estimates percentiles with bounded memory via Vitter's
// algorithm R: the first cap observations are kept exactly; later ones
// replace a uniformly random slot. With the default cap the estimate
// is exact for benchmark-scale streams.
type Reservoir struct {
	cap    int
	seen   int64
	values []float64
	rng    *rand.Rand
	sorted bool
}

// NewReservoir creates a reservoir with the given capacity (default
// 100000 when cap <= 0) and a deterministic seed.
func NewReservoir(cap int, seed int64) *Reservoir {
	return NewReservoirFrom(cap, rand.New(rand.NewSource(seed)))
}

// NewReservoirFrom creates a reservoir drawing replacement slots from
// an injected source, for callers that manage their own deterministic
// streams (each concurrent consumer — one simulation per shard, say —
// must supply its own source; the reservoir itself is single-writer).
func NewReservoirFrom(cap int, r *rand.Rand) *Reservoir {
	if cap <= 0 {
		cap = 100000
	}
	return &Reservoir{cap: cap, rng: r}
}

// Add records one observation.
func (r *Reservoir) Add(x float64) {
	r.seen++
	r.sorted = false
	if len(r.values) < r.cap {
		r.values = append(r.values, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.values[j] = x
	}
}

// AddDuration records a duration in seconds.
func (r *Reservoir) AddDuration(d time.Duration) { r.Add(d.Seconds()) }

// Count returns the number of observations seen (not retained).
func (r *Reservoir) Count() int64 { return r.seen }

// Percentile returns the p-quantile (p in [0,1]) by nearest-rank over
// the retained sample; 0 when empty.
func (r *Reservoir) Percentile(p float64) float64 {
	if len(r.values) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.values)
		r.sorted = true
	}
	if p <= 0 {
		return r.values[0]
	}
	if p >= 1 {
		return r.values[len(r.values)-1]
	}
	idx := int(math.Ceil(p*float64(len(r.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	return r.values[idx]
}
