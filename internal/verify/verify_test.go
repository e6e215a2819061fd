package verify

import (
	"strings"
	"testing"
	"testing/quick"

	"bpms/internal/model"
	"bpms/internal/petri"
)

func check(t *testing.T, p *model.Process, opts Options) *Result {
	t.Helper()
	res, err := Check(p, opts)
	if err != nil {
		t.Fatalf("Check(%s): %v", p.ID, err)
	}
	return res
}

func TestSoundTopologies(t *testing.T) {
	cases := []*model.Process{
		model.Sequence(1),
		model.Sequence(10),
		model.Parallel(2),
		model.Parallel(5),
		model.Choice(4),
		model.Loop(),
		model.Mixed(),
	}
	for _, p := range cases {
		for _, opts := range []Options{
			{UseReduction: false},
			{UseReduction: true},
			{UseReduction: true, Diagnostics: true},
		} {
			res := check(t, p, opts)
			if !res.Sound {
				t.Errorf("%s (reduction=%v diag=%v): want sound, got violations %v",
					p.ID, opts.UseReduction, opts.Diagnostics, res.Violations)
			}
			if !res.Bounded {
				t.Errorf("%s: want bounded", p.ID)
			}
		}
	}
}

func TestUnsoundDeadlock(t *testing.T) {
	p := model.WithDeadlock(3)
	for _, useRed := range []bool{false, true} {
		res := check(t, p, Options{UseReduction: useRed})
		if res.Sound {
			t.Errorf("WithDeadlock (reduction=%v): want unsound", useRed)
		}
	}
	// Diagnostics must name the problem.
	res := check(t, p, Options{Diagnostics: true})
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "deadlock") || strings.Contains(v, "no option to complete") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations lack deadlock detail: %v", res.Violations)
	}
}

func TestUnsoundLackOfSync(t *testing.T) {
	p := model.WithLackOfSync(3)
	for _, useRed := range []bool{false, true} {
		res := check(t, p, Options{UseReduction: useRed})
		if res.Sound {
			t.Errorf("WithLackOfSync (reduction=%v): want unsound", useRed)
		}
	}
	res := check(t, p, Options{Diagnostics: true})
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "improper completion") || strings.Contains(v, "unbounded") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations lack proper-completion detail: %v", res.Violations)
	}
}

func TestDeadElementDiagnosed(t *testing.T) {
	// XOR with an outgoing branch whose guard can never fire is not
	// detectable statically, but a branch behind a parallel join that
	// never gets its second token is. Build: XOR-split feeding AND-join
	// with an extra task behind the join.
	p := model.WithDeadlock(2)
	res := check(t, p, Options{Diagnostics: true})
	if res.Sound {
		t.Fatal("want unsound")
	}
	// The AND join and everything after it never executes.
	foundJoin := false
	for _, el := range res.DeadElements {
		if el == "join" {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Errorf("DeadElements = %v, want to contain \"join\"", res.DeadElements)
	}
}

func TestRandomStructuredAlwaysSound(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := model.RandomStructured(seed, 30)
		res := check(t, p, Options{UseReduction: true})
		if !res.Sound {
			t.Errorf("RandomStructured(%d): want sound, got %v", seed, res.Violations)
		}
	}
}

func TestReductionShrinksNet(t *testing.T) {
	p := model.Sequence(30)
	res := check(t, p, Options{UseReduction: true})
	if !res.Sound {
		t.Fatalf("want sound: %v", res.Violations)
	}
	if res.ReducedTransitions >= res.NetTransitions {
		t.Errorf("reduction did not shrink: %d -> %d transitions",
			res.NetTransitions, res.ReducedTransitions)
	}
	if res.StateCount > 4 {
		t.Errorf("reduced sequence should have a tiny state space, got %d states", res.StateCount)
	}
}

func TestReductionAgreesWithDirect(t *testing.T) {
	cases := []*model.Process{
		model.Sequence(5), model.Parallel(4), model.Choice(3), model.Loop(),
		model.Mixed(), model.WithDeadlock(4), model.WithLackOfSync(4),
		model.RandomStructured(3, 25), model.RandomStructured(9, 40),
	}
	for _, p := range cases {
		direct := check(t, p, Options{UseReduction: false})
		fast := check(t, p, Options{UseReduction: true})
		if direct.Sound != fast.Sound {
			t.Errorf("%s: direct=%v fast=%v disagree (direct violations: %v)",
				p.ID, direct.Sound, fast.Sound, direct.Violations)
		}
	}
}

// Property: the reduction fast path and the direct check agree on
// randomly generated block-structured models (all sound). Models whose
// direct state space exceeds the budget are decided by the fast path
// alone — that budget gap is precisely why the reduction pre-pass
// exists (experiment T3).
func TestQuickReductionSoundnessAgreement(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		p := model.RandomStructured(seed, int(sz%25)+2)
		fast := check(t, p, Options{UseReduction: true})
		if !fast.Sound {
			return false
		}
		direct := check(t, p, Options{UseReduction: false})
		return direct.Incomplete || direct.Sound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryEventTranslation(t *testing.T) {
	// Interrupting timer boundary: task either completes or escalates;
	// both paths merge; sound.
	p, err := model.New("escalation").
		Start("start").
		UserTask("review", model.Role("clerk")).
		BoundaryTimer("late", "review", "2h", true).
		ServiceTask("escalate", model.NoopHandler).
		XOR("merge").
		End("end").
		Flow("start", "review").
		Flow("review", "merge").
		Flow("late", "escalate").
		Flow("escalate", "merge").
		Flow("merge", "end").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := check(t, p, Options{Diagnostics: true})
	if !res.Sound {
		t.Errorf("interrupting boundary process should be sound: %v", res.Violations)
	}

}

// TestNonInterruptingBoundary: a non-interrupting boundary event leaves
// its activity running and starts a branch of its own, and a case ends
// when its last branch does. So an activity that completes after its
// boundary fired, or without it firing, makes a sound definition,
// whether the branch ends at the activity's end event or at one of its
// own; so do an interrupting boundary beside it, two of them, a loop
// through the activity, and one on a sub-process. A branch that must
// join a branch that may never start still deadlocks, and one that
// forks and ends twice completes improperly. Interrupting boundaries
// keep their verdicts. Every verdict holds with and without reduction.
func TestNonInterruptingBoundary(t *testing.T) {
	notify := func(b *model.Builder) *model.Builder {
		return b.Start("start").UserTask("work", model.Role("clerk")).
			BoundaryTimer("remind", "work", "1h", false).ServiceTask("notify", model.NoopHandler)
	}
	sub, err := model.New("inner").Start("s").UserTask("sign", model.Role("clerk")).End("e").Seq("s", "sign", "e").Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		b     *model.Builder
		sound bool
	}{
		{"one end event", notify(model.New("one-end")).End("end").
			Flow("start", "work").Flow("work", "end").Flow("remind", "notify").Flow("notify", "end"), true},
		{"two end events", notify(model.New("two-ends")).End("end").End("end2").
			Flow("start", "work").Flow("work", "end").Flow("remind", "notify").Flow("notify", "end2"), true},
		{"beside an interrupting one", notify(model.New("both")).BoundaryTimer("late", "work", "48h", true).
			ServiceTask("expire", model.NoopHandler).XOR("merge").End("end").End("end2").
			Flow("start", "work").Flow("work", "merge").Flow("late", "expire").Flow("expire", "merge").
			Flow("merge", "end").Flow("remind", "notify").Flow("notify", "end2"), true},
		{"two of them", notify(model.New("two")).BoundaryMessage("ping", "work", "ping", false).
			ServiceTask("log", model.NoopHandler).End("end").End("end2").End("end3").
			Flow("start", "work").Flow("work", "end").Flow("remind", "notify").Flow("notify", "end2").
			Flow("ping", "log").Flow("log", "end3"), true},
		{"in a loop", notify(model.New("loop")).XOR("again").XOR("back").End("end").End("end2").
			Flow("start", "back").Flow("back", "work").Flow("work", "again").
			FlowIf("again", "back", "retry").Flow("again", "end").Flow("remind", "notify").Flow("notify", "end2"), true},
		{"on a sub-process", model.New("scoped").Start("start").SubProcess("sp", sub).
			BoundaryTimer("remind", "sp", "1h", false).ServiceTask("notify", model.NoopHandler).End("end").End("end2").
			Flow("start", "sp").Flow("sp", "end").Flow("remind", "notify").Flow("notify", "end2"), true},
		{"interrupting, own end event", model.New("escalate").Start("start").UserTask("work", model.Role("clerk")).
			BoundaryTimer("late", "work", "48h", true).ServiceTask("expire", model.NoopHandler).End("end").End("end2").
			Flow("start", "work").Flow("work", "end").Flow("late", "expire").Flow("expire", "end2"), true},
		{"interrupting, joined by AND", model.New("escalate-join").Start("start").UserTask("work", model.Role("clerk")).
			BoundaryTimer("late", "work", "48h", true).ServiceTask("expire", model.NoopHandler).AND("join").End("end").
			Flow("start", "work").Flow("work", "join").Flow("late", "expire").Flow("expire", "join").Flow("join", "end"), false},
		{"joined by AND", notify(model.New("and-join")).AND("join").End("end").
			Flow("start", "work").Flow("work", "join").Flow("remind", "notify").Flow("notify", "join").Flow("join", "end"), false},
		{"forked and ended twice", notify(model.New("fork")).AND("fork").End("end").End("end2").End("end3").
			Flow("start", "work").Flow("work", "end").Flow("remind", "notify").Flow("notify", "fork").
			Flow("fork", "end2").Flow("fork", "end3"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {UseReduction: true}, {UseReduction: true, Diagnostics: true}} {
				if res := check(t, p, opts); res.Sound != tc.sound {
					t.Errorf("%+v: sound = %v, want %v: %v", opts, res.Sound, tc.sound, res.Violations)
				}
			}
		})
	}
}

func TestSubProcessTranslation(t *testing.T) {
	sub, err := model.New("inner").
		Start("s").ServiceTask("work", model.NoopHandler).End("e").
		Seq("s", "work", "e").Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := model.New("outer").
		Start("start").
		SubProcess("sp", sub).
		End("end").
		Seq("start", "sp", "end").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := check(t, p, Options{Diagnostics: true})
	if !res.Sound {
		t.Errorf("sub-process sequence should be sound: %v", res.Violations)
	}
}

func TestInclusiveGatewayWarning(t *testing.T) {
	p, err := model.New("incl").
		Start("start").
		OR("split").
		ServiceTask("a", model.NoopHandler).
		ServiceTask("b", model.NoopHandler).
		OR("join").
		End("end").
		Flow("start", "split").
		FlowIf("split", "a", "coalesce(x,0) > 0").
		FlowIf("split", "b", "coalesce(y,0) > 0").
		Flow("a", "join").
		Flow("b", "join").
		Flow("join", "end").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := check(t, p, Options{Diagnostics: true})
	warned := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "inclusive gateway") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("want inclusive-gateway warning, got %v", res.Warnings)
	}
}

func TestIsWorkflowNet(t *testing.T) {
	ok, problems, err := IsWorkflowNet(model.Mixed())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("Mixed should be a WF-net, problems: %v", problems)
	}
}

func TestMessageAndEventGateway(t *testing.T) {
	// Event gateway racing a message against a timeout: classic
	// deferred-choice pattern; sound.
	p, err := model.New("race").
		Start("start").
		EventGateway("wait").
		MessageCatch("paid", "payment").
		TimerCatch("timeout", "24h").
		XOR("merge").
		End("end").
		Flow("start", "wait").
		Flow("wait", "paid").
		Flow("wait", "timeout").
		Flow("paid", "merge").
		Flow("timeout", "merge").
		Flow("merge", "end").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := check(t, p, Options{Diagnostics: true})
	if !res.Sound {
		t.Errorf("deferred choice should be sound: %v", res.Violations)
	}
}

func TestReduceStandalone(t *testing.T) {
	net, _, _, err := ToNet(model.Sequence(20))
	if err != nil {
		t.Fatal(err)
	}
	m0 := net.NewMarking()
	src, _ := net.PlaceByName(SourcePlace)
	m0[src] = 1
	red, rm0 := Reduce(net, m0, SourcePlace, SinkPlace)
	if red.Places() >= net.Places() {
		t.Errorf("Reduce did not shrink places: %d -> %d", net.Places(), red.Places())
	}
	if rm0.Tokens() != 1 {
		t.Errorf("reduced marking tokens = %d, want 1", rm0.Tokens())
	}
	// Protected places survive.
	if _, ok := red.PlaceByName(SourcePlace); !ok {
		t.Error("protected source place was removed")
	}
	if _, ok := red.PlaceByName(SinkPlace); !ok {
		t.Error("protected sink place was removed")
	}
}

func TestStateBudgetExhaustion(t *testing.T) {
	p := model.Parallel(12) // 2^12 interleavings
	res := check(t, p, Options{MaxStates: 50, UseReduction: false})
	if !res.Incomplete {
		t.Error("want Incomplete with tiny budget")
	}
	if res.Sound {
		t.Error("exhausted budget must not report sound")
	}
}

func TestNetMapDiagnostics(t *testing.T) {
	net, nm, _, err := ToNet(model.Mixed())
	if err != nil {
		t.Fatal(err)
	}
	// Every transition must map to an element.
	for ti := 0; ti < net.Transitions(); ti++ {
		name := net.TransitionName(petri.TransitionID(ti))
		if nm.ElementOf[name] == "" {
			t.Errorf("transition %q has no element mapping", name)
		}
	}
}
