package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestReservoirExactWhenSmall(t *testing.T) {
	r := NewReservoir(1000, 1)
	for i := 100; i >= 1; i-- {
		r.add(float64(i))
	}
	if r.Count() != 100 {
		t.Errorf("Count = %d", r.Count())
	}
	if got := r.Percentile(0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := r.Percentile(0.99); got != 99 {
		t.Errorf("p99 = %g, want 99", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := r.Percentile(1); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
	r.AddDuration(1500 * time.Millisecond)
	if r.Count() != 101 || r.Percentile(1) != 100 || r.Percentile(0) != 1 {
		t.Errorf("AddDuration(1.5s): count %d, range %g..%g", r.Count(), r.Percentile(0), r.Percentile(1))
	}
}

func TestReservoirSamplingApproximation(t *testing.T) {
	// 100k uniform values through a 5k reservoir: median ~0.5.
	r := NewReservoir(5000, 42)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		r.add(rng.Float64())
	}
	if med := r.Percentile(0.5); math.Abs(med-0.5) > 0.05 {
		t.Errorf("sampled median = %g, want ~0.5", med)
	}
	if r.Count() != 100000 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(10, 1)
	if r.Percentile(0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

// Property: percentiles are monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		r := NewReservoir(0, 3)
		ok := false
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				r.add(x)
				ok = true
			}
		}
		if !ok {
			return true
		}
		p1 := float64(a%101) / 100
		p2 := float64(b%101) / 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return r.Percentile(p1) <= r.Percentile(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReservoirSameSeedSameSample: two reservoirs with one seed keep the
// same sample of a stream longer than their capacity.
func TestReservoirSameSeedSameSample(t *testing.T) {
	r1, r2 := NewReservoir(10, 9), NewReservoir(10, 9)
	for i := 0; i < 1000; i++ {
		r1.add(float64(i))
		r2.add(float64(i))
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if r1.Percentile(p) != r2.Percentile(p) {
			t.Fatalf("p%.0f diverged: %v vs %v", p*100, r1.Percentile(p), r2.Percentile(p))
		}
	}
	if NewReservoir(0, 1).cap != 100000 {
		t.Error("default capacity not applied")
	}
}
