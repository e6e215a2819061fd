package mine

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/sim"
)

func mkLog(traces ...[]string) *history.Log {
	l := &history.Log{Name: "test"}
	base := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for ci, acts := range traces {
		tr := history.Trace{CaseID: string(rune('a' + ci))}
		for i, a := range acts {
			tr.Entries = append(tr.Entries, history.Entry{
				Activity: a,
				Time:     base.Add(time.Duration(ci*100+i) * time.Minute),
			})
		}
		l.Traces = append(l.Traces, tr)
	}
	return l
}

func TestBuildDFG(t *testing.T) {
	l := mkLog(
		[]string{"A", "B", "C"},
		[]string{"A", "C"},
		[]string{"A", "B", "C"},
	)
	g := BuildDFG(l)
	if g.TotalTraces != 3 {
		t.Errorf("traces = %d", g.TotalTraces)
	}
	if g.Counts[Pair{"A", "B"}] != 2 || g.Counts[Pair{"B", "C"}] != 2 || g.Counts[Pair{"A", "C"}] != 1 {
		t.Errorf("counts = %v", g.Counts)
	}
	if g.Starts["A"] != 3 || g.Ends["C"] != 3 {
		t.Errorf("starts=%v ends=%v", g.Starts, g.Ends)
	}
	if g.Activities["A"] != 3 || g.Activities["B"] != 2 {
		t.Errorf("activities = %v", g.Activities)
	}
	if got := g.ActivityList(); len(got) != 3 || got[0] != "A" {
		t.Errorf("ActivityList = %v", got)
	}
	if !strings.Contains(g.Dot(), `"A" -> "B"`) {
		t.Error("Dot missing edge")
	}
}

func TestDFGFilters(t *testing.T) {
	l := mkLog(
		[]string{"A", "B"}, []string{"A", "B"}, []string{"A", "B"},
		[]string{"B", "A"}, // noise back-edge
	)
	g := BuildDFG(l)
	f := g.Filter(2)
	if _, ok := f.Counts[Pair{"B", "A"}]; ok {
		t.Error("frequency filter kept noise edge")
	}
	d := g.FilterByDependency(0.3)
	if _, ok := d.Counts[Pair{"B", "A"}]; ok {
		t.Error("dependency filter kept noise edge")
	}
	if _, ok := d.Counts[Pair{"A", "B"}]; !ok {
		t.Error("dependency filter dropped the real edge")
	}
	if g.Dependency("A", "B") <= 0 || g.Dependency("B", "A") >= 0 {
		t.Errorf("dependency signs: AB=%g BA=%g", g.Dependency("A", "B"), g.Dependency("B", "A"))
	}
}

func TestDFGFitness(t *testing.T) {
	train := mkLog([]string{"A", "B", "C"})
	g := BuildDFG(train)
	if f := g.FitnessDFG(train); f != 1 {
		t.Errorf("self fitness = %g", f)
	}
	other := mkLog([]string{"A", "C", "B"})
	if f := g.FitnessDFG(other); f >= 1 {
		t.Errorf("foreign fitness = %g, want < 1", f)
	}
	if f := g.FitnessDFG(&history.Log{}); f != 1 {
		t.Errorf("empty log fitness = %g", f)
	}
}

func TestAlphaSequence(t *testing.T) {
	l := mkLog([]string{"A", "B", "C"}, []string{"A", "B", "C"})
	res := Alpha(l)
	if res.Net.Transitions() != 3 {
		t.Fatalf("transitions = %d", res.Net.Transitions())
	}
	c := TokenReplay(res, l)
	if c.Fitness() != 1 {
		t.Errorf("sequence fitness = %g (missing=%d remaining=%d)", c.Fitness(), c.Missing, c.Remaining)
	}
	if c.FitTraces != 2 {
		t.Errorf("fit traces = %d", c.FitTraces)
	}
}

func TestAlphaChoice(t *testing.T) {
	l := mkLog(
		[]string{"A", "B", "D"},
		[]string{"A", "C", "D"},
	)
	res := Alpha(l)
	c := TokenReplay(res, l)
	if c.Fitness() != 1 {
		t.Errorf("choice fitness = %g", c.Fitness())
	}
	// A trace violating the choice (both B and C) must not fit.
	bad := mkLog([]string{"A", "B", "C", "D"})
	cb := TokenReplay(res, bad)
	if cb.FitTraces != 0 {
		t.Errorf("violating trace counted as fit")
	}
	if cb.Fitness() >= 1 {
		t.Errorf("bad fitness = %g, want < 1", cb.Fitness())
	}
}

func TestAlphaParallel(t *testing.T) {
	// A;(B||C);D — both interleavings observed.
	l := mkLog(
		[]string{"A", "B", "C", "D"},
		[]string{"A", "C", "B", "D"},
	)
	res := Alpha(l)
	c := TokenReplay(res, l)
	if c.Fitness() != 1 {
		t.Errorf("parallel fitness = %g (missing=%d remaining=%d)", c.Fitness(), c.Missing, c.Remaining)
	}
}

func TestAlphaUnknownActivity(t *testing.T) {
	res := Alpha(mkLog([]string{"A", "B"}))
	c := TokenReplay(res, mkLog([]string{"A", "X", "B"}))
	if c.UnknownActivityHits != 1 {
		t.Errorf("unknown hits = %d", c.UnknownActivityHits)
	}
	if c.Fitness() >= 1 {
		t.Errorf("fitness with unknown activity = %g", c.Fitness())
	}
}

func TestAlphaRediscoversSimulatedProcess(t *testing.T) {
	// Simulate the Mixed topology and rediscover it: replay fitness of
	// the training log on the mined model must be 1 (alpha guarantees
	// fitness on its own structured, complete input).
	p := model.New("disc").
		Start("s").
		UserTask("register", model.Name("Register"), model.Role("agent")).
		XOR("route", model.Default("toB")).
		UserTask("checkA", model.Name("CheckA"), model.Role("agent")).
		UserTask("checkB", model.Name("CheckB"), model.Role("agent")).
		XOR("merge").
		UserTask("archive", model.Name("Archive"), model.Role("agent")).
		End("e").
		Flow("s", "register").
		Flow("register", "route").
		FlowIf("route", "checkA", "fast == true").
		FlowID("toB", "route", "checkB", "").
		Flow("checkA", "merge").
		Flow("checkB", "merge").
		Flow("merge", "archive").
		Flow("archive", "e").
		MustBuild()
	res, err := sim.Run(sim.Config{
		Process:        p,
		Cases:          60,
		Interarrival:   sim.Exp(time.Minute),
		DefaultService: sim.Fixed(30 * time.Second),
		Resources:      map[string][]string{"agent": {"w1", "w2", "w3"}},
		Vars: func(i int, r *rand.Rand) map[string]any {
			return map[string]any{"fast": r.Intn(2) == 0}
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 {
		t.Fatalf("sim completed = %d", res.Completed)
	}
	mined := Alpha(res.Log)
	c := TokenReplay(mined, res.Log)
	if c.Fitness() < 0.99 {
		t.Errorf("rediscovery fitness = %g", c.Fitness())
	}
	if dead := DeadTransitions(mined, res.Log); len(dead) != 0 {
		t.Errorf("dead transitions = %v", dead)
	}
}

func TestPerformanceMining(t *testing.T) {
	l := mkLog(
		[]string{"A", "B", "C"},
		[]string{"A", "B", "C"},
	)
	acts, cases := Performance(l)
	if cases.Cases != 2 {
		t.Errorf("cases = %d", cases.Cases)
	}
	if cases.CycleTime.Mean() != 120 { // 2 steps of 1 minute
		t.Errorf("mean cycle = %g", cases.CycleTime.Mean())
	}
	if cases.Events.Mean() != 3 {
		t.Errorf("mean events = %g", cases.Events.Mean())
	}
	if acts["B"].Count != 2 || acts["B"].Sojourn.Mean() != 60 {
		t.Errorf("B stats = %+v", acts["B"])
	}
	if acts["A"].Sojourn.n != 0 {
		t.Errorf("A (trace-initial) should have no sojourn samples")
	}
}

func TestFitnessImprovesWithLogSize(t *testing.T) {
	// The F3 shape: fitness of a model mined from a small log,
	// evaluated on a big log, is below fitness of a model mined from
	// the big log itself.
	gen := func(n int, seed int64) *history.Log {
		r := rand.New(rand.NewSource(seed))
		l := &history.Log{}
		for i := 0; i < n; i++ {
			// Ground truth: A;(B|C);(D||E);F
			acts := []string{"A"}
			if r.Intn(2) == 0 {
				acts = append(acts, "B")
			} else {
				acts = append(acts, "C")
			}
			if r.Intn(2) == 0 {
				acts = append(acts, "D", "E")
			} else {
				acts = append(acts, "E", "D")
			}
			acts = append(acts, "F")
			tr := history.Trace{CaseID: string(rune('a' + i%26))}
			for _, a := range acts {
				tr.Entries = append(tr.Entries, history.Entry{Activity: a})
			}
			l.Traces = append(l.Traces, tr)
		}
		return l
	}
	big := gen(500, 1)
	tiny := gen(2, 2) // incomplete: misses interleavings/branches
	gTiny := BuildDFG(tiny)
	gBig := BuildDFG(big)
	fTiny := gTiny.FitnessDFG(big)
	fBig := gBig.FitnessDFG(big)
	if fBig != 1 {
		t.Errorf("self-trained DFG fitness = %g", fBig)
	}
	if fTiny >= fBig {
		t.Errorf("tiny-log fitness %g should be below big-log fitness %g", fTiny, fBig)
	}
}
