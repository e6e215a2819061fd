package mine

import (
	"time"

	"bpms/internal/history"
)

// Conformance aggregates token-replay counters over a log. Fitness is
// the classic combination
//
//	f = ½(1 − missing/consumed) + ½(1 − remaining/produced)
//
// where missing tokens are created on demand to fire log moves the
// model disallows, and remaining tokens are those left behind (other
// than the final marking) at trace end.
type Conformance struct {
	Produced, Consumed  int
	Missing, Remaining  int
	Traces, FitTraces   int
	UnknownActivityHits int
}

// Fitness returns the replay fitness in [0, 1].
func (c *Conformance) Fitness() float64 {
	if c.Consumed == 0 && c.Produced == 0 {
		return 1
	}
	f := 0.0
	if c.Consumed > 0 {
		f += 0.5 * (1 - float64(c.Missing)/float64(c.Consumed))
	} else {
		f += 0.5
	}
	if c.Produced > 0 {
		f += 0.5 * (1 - float64(c.Remaining)/float64(c.Produced))
	} else {
		f += 0.5
	}
	if f < 0 {
		f = 0
	}
	return f
}

// TokenReplay replays every trace of the log on the labelled net.
// Activities without a matching transition count as missing+remaining
// (a log move the model cannot mimic at all).
func TokenReplay(res *AlphaResult, log *history.Log) *Conformance {
	c := &Conformance{}
	net := res.Net
	for _, tr := range log.Traces {
		if len(tr.Entries) == 0 {
			continue
		}
		c.Traces++
		m := res.M0.Clone()
		// Initial marking tokens count as produced.
		produced := int(m.Tokens())
		consumed := 0
		missing := 0
		for _, e := range tr.Entries {
			t, ok := res.TransitionOf[e.Activity]
			if !ok {
				c.UnknownActivityHits++
				missing++
				produced++ // the phantom move leaves a phantom token
				continue
			}
			for _, p := range net.Pre(t) {
				if m[p] < 1 {
					missing++
					m[p]++
				}
				m[p]--
				consumed++
			}
			for _, p := range net.Post(t) {
				m[p]++
				produced++
			}
		}
		// Consume the final marking.
		remaining := 0
		for i := range m {
			want := res.Final[i]
			have := m[i]
			if have >= want {
				consumed += int(want)
				remaining += int(have - want)
			} else {
				consumed += int(have)
				missing += int(want - have)
			}
		}
		c.Produced += produced
		c.Consumed += consumed
		c.Missing += missing
		c.Remaining += remaining
		if missing == 0 && remaining == 0 {
			c.FitTraces++
		}
	}
	return c
}

// ActivityStat summarises one activity's performance in a log.
type ActivityStat struct {
	Activity string
	Count    int
	// Sojourn is the time from the previous event in the trace to this
	// activity's completion (a proxy for activity duration in
	// completion-only logs).
	Sojourn RunningMean
}

// CaseStat summarises case-level performance.
type CaseStat struct {
	Cases     int
	CycleTime RunningMean
	Events    RunningMean
}

// Performance computes per-activity and per-case statistics.
func Performance(log *history.Log) (map[string]*ActivityStat, *CaseStat) {
	acts := map[string]*ActivityStat{}
	cs := &CaseStat{}
	for _, tr := range log.Traces {
		if len(tr.Entries) == 0 {
			continue
		}
		cs.Cases++
		cs.Events.Add(float64(len(tr.Entries)))
		first := tr.Entries[0].Time
		last := tr.Entries[len(tr.Entries)-1].Time
		if !first.IsZero() && !last.IsZero() {
			cs.CycleTime.Add(last.Sub(first).Seconds())
		}
		var prev time.Time
		for i, e := range tr.Entries {
			st := acts[e.Activity]
			if st == nil {
				st = &ActivityStat{Activity: e.Activity}
				acts[e.Activity] = st
			}
			st.Count++
			if i > 0 && !e.Time.IsZero() && !prev.IsZero() {
				st.Sojourn.Add(e.Time.Sub(prev).Seconds())
			}
			prev = e.Time
		}
	}
	return acts, cs
}

// DeadTransitions lists activities of the mined net that the log never
// exercises (sanity diagnostic after discovery).
func DeadTransitions(res *AlphaResult, log *history.Log) []string {
	seen := map[string]bool{}
	for _, tr := range log.Traces {
		for _, e := range tr.Entries {
			seen[e.Activity] = true
		}
	}
	var out []string
	for a := range res.TransitionOf {
		if !seen[a] {
			out = append(out, a)
		}
	}
	return out
}
