package mine

// RunningMean is the mean of a stream of observations, kept in constant
// space.
type RunningMean struct {
	n    int64
	mean float64
}

// Add records one observation.
func (m *RunningMean) Add(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// Mean returns the mean so far (0 when empty).
func (m *RunningMean) Mean() float64 { return m.mean }
