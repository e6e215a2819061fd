package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Std() != 0 {
		t.Error("zero Summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %g", s.Mean())
	}
	// Sample std of this classic dataset is ~2.138.
	if math.Abs(s.Std()-2.138) > 0.01 {
		t.Errorf("Std = %g", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
	if math.Abs(s.Sum()-40) > 1e-9 {
		t.Errorf("Sum = %g", s.Sum())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Errorf("String = %q", s.String())
	}
	s.AddDuration(time.Second)
	if s.Count() != 9 {
		t.Error("AddDuration did not record")
	}
}

// Property: Welford mean/variance match the two-pass formulas.
func TestQuickSummaryMatchesTwoPass(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter NaN/Inf which make the comparison meaningless.
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, x := range clean {
			m2 += (x - mean) * (x - mean)
		}
		variance := m2 / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(s.Mean()-mean) < 1e-6*scale &&
			math.Abs(s.Var()-variance) < 1e-4*math.Max(1, variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReservoirExactWhenSmall(t *testing.T) {
	r := NewReservoir(1000, 1)
	for i := 100; i >= 1; i-- {
		r.Add(float64(i))
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
}

func TestReservoirSamplingApproximation(t *testing.T) {
	// 100k uniform values through a 5k reservoir: median ~0.5.
	r := NewReservoir(5000, 42)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		r.Add(rng.Float64())
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
				r.Add(x)
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

func TestReservoirFromInjectedSource(t *testing.T) {
	r1 := NewReservoirFrom(10, rand.New(rand.NewSource(9)))
	r2 := NewReservoirFrom(10, rand.New(rand.NewSource(9)))
	for i := 0; i < 1000; i++ {
		r1.Add(float64(i))
		r2.Add(float64(i))
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if r1.Percentile(p) != r2.Percentile(p) {
			t.Fatalf("p%.0f diverged: %v vs %v", p*100, r1.Percentile(p), r2.Percentile(p))
		}
	}
	if NewReservoirFrom(0, rand.New(rand.NewSource(1))).cap != 100000 {
		t.Error("default capacity not applied")
	}
}
