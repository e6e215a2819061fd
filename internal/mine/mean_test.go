package mine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMean(t *testing.T) {
	var m RunningMean
	if m.n != 0 || m.Mean() != 0 {
		t.Error("zero RunningMean should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.n != 8 {
		t.Errorf("n = %d", m.n)
	}
	if m.Mean() != 5 {
		t.Errorf("Mean = %g", m.Mean())
	}
}

// Property: the running mean matches the two-pass one.
func TestQuickRunningMeanMatchesTwoPass(t *testing.T) {
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
		var m RunningMean
		var sum float64
		for _, x := range clean {
			m.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		return math.Abs(m.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
