package sim

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Reservoir estimates percentiles of a stream of durations with bounded
// memory via Vitter's algorithm R: the first cap observations are kept
// exactly; later ones replace a uniformly random slot. With the default
// cap the estimate is exact for simulation-scale streams. It is
// deterministic given its seed and single-writer.
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
	if cap <= 0 {
		cap = 100000
	}
	return &Reservoir{cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// AddDuration records a duration, in seconds.
func (r *Reservoir) AddDuration(d time.Duration) { r.add(d.Seconds()) }

func (r *Reservoir) add(x float64) {
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
	return r.values[int(math.Ceil(p*float64(len(r.values))))-1]
}
