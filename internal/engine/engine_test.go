package engine

import (
	"strings"
	"testing"
	"time"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

var t0 = time.Date(2026, 6, 1, 8, 0, 0, 0, time.UTC)

// fixture bundles an engine with a virtual clock and a worklist backed
// by a small org model.
type fixture struct {
	e     *Engine
	clock *timer.VirtualClock
	wheel timer.Service
	hist  *history.Store
	tasks *task.Service
}

// tick advances virtual time and fires due timers.
func (f *fixture) tick(d time.Duration) {
	f.wheel.AdvanceTo(f.clock.Advance(d))
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := timer.NewVirtualClock(t0)
	wheel := timer.NewWheelService(time.Millisecond, 256)
	dir := resource.NewDirectory()
	dir.AddUser(&resource.User{ID: "alice", Roles: []string{"clerk", "manager"}})
	dir.AddUser(&resource.User{ID: "bob", Roles: []string{"clerk"}})
	tasks := task.NewService(task.Config{Directory: dir, Now: clock.Now})
	hist, err := history.NewStriped([]storage.Journal{storage.NewMemJournal()}, history.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Tasks:   tasks,
		Timers:  wheel,
		Clock:   clock,
		History: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	return &fixture{e: e, clock: clock, wheel: wheel, hist: hist, tasks: tasks}
}

func deployAndStart(t *testing.T, f *fixture, p *model.Process, vars map[string]any) *InstanceView {
	t.Helper()
	if err := f.e.Deploy(p); err != nil {
		t.Fatalf("Deploy(%s): %v", p.ID, err)
	}
	v, err := f.e.StartInstance(p.ID, vars)
	if err != nil {
		t.Fatalf("StartInstance(%s): %v", p.ID, err)
	}
	return v
}

func instStatus(t *testing.T, f *fixture, id string) Status {
	t.Helper()
	v, err := f.e.Instance(id)
	if err != nil {
		t.Fatal(err)
	}
	return v.Status
}

func TestSequenceCompletes(t *testing.T) {
	f := newFixture(t)
	v := deployAndStart(t, f, model.Sequence(10), nil)
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed (tokens %v)", v.Status, v.ActiveTokens)
	}
	if len(v.ActiveTokens) != 0 {
		t.Errorf("tokens = %v", v.ActiveTokens)
	}
	// History recorded the full trace.
	evs := f.hist.EventsOf(v.ID)
	completions := 0
	for _, ev := range evs {
		if ev.Type == history.ElementCompleted {
			completions++
		}
	}
	if completions != 12 { // start + 10 tasks + end
		t.Errorf("element completions = %d, want 12", completions)
	}
}

func TestExclusiveChoiceRouting(t *testing.T) {
	f := newFixture(t)
	if err := f.e.Deploy(model.Choice(3)); err != nil {
		t.Fatal(err)
	}
	for branch := 0; branch <= 3; branch++ {
		v, err := f.e.StartInstance("xor-3", map[string]any{"branch": branch})
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusCompleted {
			t.Fatalf("branch %d: status %s", branch, v.Status)
		}
		// The taken branch appears in history.
		want := "t0"
		if branch >= 1 {
			want = map[int]string{1: "t1", 2: "t2", 3: "t3"}[branch]
		}
		found := false
		for _, ev := range f.hist.EventsOf(v.ID) {
			if ev.Type == history.ElementCompleted && ev.ElementID == want {
				found = true
			}
		}
		if !found {
			t.Errorf("branch %d: %s not executed", branch, want)
		}
	}
}

func TestParallelForkJoin(t *testing.T) {
	f := newFixture(t)
	v := deployAndStart(t, f, model.Parallel(5), nil)
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	evs := f.hist.EventsOf(v.ID)
	tasks := map[string]bool{}
	joins := 0
	for _, ev := range evs {
		if ev.Type == history.ElementCompleted {
			if strings.HasPrefix(ev.ElementID, "t") {
				tasks[ev.ElementID] = true
			}
			if ev.ElementID == "join" {
				joins++
			}
		}
	}
	if len(tasks) != 5 {
		t.Errorf("executed tasks = %v", tasks)
	}
	if joins != 1 {
		t.Errorf("join fired %d times, want exactly 1", joins)
	}
}

func TestLoopIterates(t *testing.T) {
	f := newFixture(t)
	v := deployAndStart(t, f, model.Loop(), map[string]any{"limit": 5, "count": 0})
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	cnt, ok := v.Vars["count"]
	if !ok {
		t.Fatal("count variable missing")
	}
	if got, _ := cnt.AsInt(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
}

func TestScriptTaskOutputs(t *testing.T) {
	f := newFixture(t)
	p := model.New("calc").
		Start("s").
		ScriptTask("compute",
			model.Output("total", "price * qty"),
			model.Output("discounted", "price * qty * 0.9")).
		End("e").
		Seq("s", "compute", "e").
		MustBuild()
	v := deployAndStart(t, f, p, map[string]any{"price": 10, "qty": 4})
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	if got, _ := v.Vars["total"].AsInt(); got != 40 {
		t.Errorf("total = %v", v.Vars["total"])
	}
	if got, _ := v.Vars["discounted"].AsFloat(); got != 36 {
		t.Errorf("discounted = %v", v.Vars["discounted"])
	}
}

func TestUserTaskLifecycle(t *testing.T) {
	f := newFixture(t)
	p := model.New("approval").
		Start("s").
		UserTask("approve", model.Name("Approve"), model.Role("manager")).
		XOR("check", model.Default("toReject")).
		ServiceTask("accept", model.NoopHandler).
		ServiceTask("reject", model.NoopHandler).
		XOR("merge").
		End("e").
		Flow("s", "approve").
		Flow("approve", "check").
		FlowIf("check", "accept", "approved == true").
		FlowID("toReject", "check", "reject", "").
		Flow("accept", "merge").
		Flow("reject", "merge").
		Flow("merge", "e").
		MustBuild()
	v := deployAndStart(t, f, p, map[string]any{"amount": 900})
	if v.Status != StatusActive {
		t.Fatalf("status = %s, want active", v.Status)
	}
	if len(v.ActiveTokens) != 1 || v.ActiveTokens[0].Wait != WaitUserTask {
		t.Fatalf("tokens = %+v", v.ActiveTokens)
	}

	// The work item is offered to managers (alice only).
	offered := f.tasks.OfferedItems("alice")
	if len(offered) != 1 || offered[0].Name != "Approve" {
		t.Fatalf("alice offers = %v", offered)
	}
	if offered[0].Data["amount"] != int64(900) {
		t.Errorf("work item data = %v", offered[0].Data)
	}
	itemID := offered[0].ID
	if _, err := f.tasks.Claim(itemID, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tasks.Start(itemID, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tasks.Complete(itemID, "alice", map[string]any{"approved": true}); err != nil {
		t.Fatal(err)
	}

	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status after completion = %s", got)
	}
	// The approved branch ran.
	ran := map[string]bool{}
	for _, ev := range f.hist.EventsOf(v.ID) {
		if ev.Type == history.ElementCompleted {
			ran[ev.ElementID] = true
		}
	}
	if !ran["accept"] || ran["reject"] {
		t.Errorf("ran = %v", ran)
	}
}

func TestServiceTaskRetriesAndErrorBoundary(t *testing.T) {
	f := newFixture(t)
	attempts := 0
	f.e.RegisterHandler("flaky", func(TaskContext) (map[string]expr.Value, error) {
		attempts++
		if attempts < 3 {
			return nil, &BPMNError{Code: "transient", Msg: "try again"}
		}
		return map[string]expr.Value{"ok": expr.True}, nil
	})
	p := model.New("retrying").
		Start("s").
		ServiceTask("work", "flaky", model.Retries(5)).
		End("e").
		Seq("s", "work", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if ok, _ := v.Vars["ok"].AsBool(); !ok {
		t.Error("handler updates lost")
	}

	// Exhausted retries route to a matching error boundary.
	f.e.RegisterHandler("alwaysFails", func(TaskContext) (map[string]expr.Value, error) {
		return nil, &BPMNError{Code: "E42", Msg: "broken"}
	})
	p2 := model.New("catching").
		Start("s").
		ServiceTask("work", "alwaysFails", model.Retries(1)).
		BoundaryError("catch", "work", "E42").
		ServiceTask("fallback", model.NoopHandler).
		XOR("merge").
		End("e").
		Flow("s", "work").
		Flow("work", "merge").
		Flow("catch", "fallback").
		Flow("fallback", "merge").
		Flow("merge", "e").
		MustBuild()
	v2 := deployAndStart(t, f, p2, nil)
	if v2.Status != StatusCompleted {
		t.Fatalf("status = %s", v2.Status)
	}
	ran := map[string]bool{}
	for _, ev := range f.hist.EventsOf(v2.ID) {
		if ev.Type == history.ElementCompleted {
			ran[ev.ElementID] = true
		}
	}
	if !ran["fallback"] {
		t.Error("error boundary path not taken")
	}

	// Non-matching code faults the instance.
	p3 := model.New("unmatched").
		Start("s").
		ServiceTask("work", "alwaysFails").
		BoundaryError("catch", "work", "OTHER").
		ServiceTask("fallback", model.NoopHandler).
		XOR("merge").
		End("e").
		Flow("s", "work").
		Flow("work", "merge").
		Flow("catch", "fallback").
		Flow("fallback", "merge").
		Flow("merge", "e").
		MustBuild()
	v3 := deployAndStart(t, f, p3, nil)
	if v3.Status != StatusFaulted {
		t.Fatalf("status = %s, want faulted", v3.Status)
	}
}

func TestTimerCatchEvent(t *testing.T) {
	f := newFixture(t)
	p := model.New("delayed").
		Start("s").
		TimerCatch("wait", "30m").
		ServiceTask("after", model.NoopHandler).
		End("e").
		Seq("s", "wait", "after", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	if v.Status != StatusActive {
		t.Fatalf("status = %s", v.Status)
	}
	f.tick(10 * time.Minute)
	if got := instStatus(t, f, v.ID); got != StatusActive {
		t.Fatalf("fired too early: %s", got)
	}
	f.tick(25 * time.Minute)
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status after timer = %s", got)
	}
}

func TestBoundaryTimerInterrupting(t *testing.T) {
	f := newFixture(t)
	p := model.New("escalating").
		Start("s").
		UserTask("review", model.Role("clerk")).
		BoundaryTimer("late", "review", "2h", true).
		ServiceTask("escalate", model.NoopHandler).
		XOR("merge").
		End("e").
		Flow("s", "review").
		Flow("review", "merge").
		Flow("late", "escalate").
		Flow("escalate", "merge").
		Flow("merge", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	items := f.tasks.ByState(task.Offered)
	if len(items) != 1 {
		t.Fatalf("offered items = %d", len(items))
	}
	f.tick(3 * time.Hour)
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status after escalation = %s", got)
	}
	// The work item was cancelled by the interrupt.
	it, _ := f.tasks.Get(items[0].ID)
	if it.State != task.Cancelled {
		t.Errorf("work item state = %s, want cancelled", it.State)
	}
	ran := map[string]bool{}
	for _, ev := range f.hist.EventsOf(v.ID) {
		if ev.Type == history.ElementCompleted {
			ran[ev.ElementID] = true
		}
	}
	if !ran["escalate"] || ran["review"] {
		t.Errorf("ran = %v", ran)
	}
}

func TestBoundaryTimerNonInterrupting(t *testing.T) {
	f := newFixture(t)
	p := model.New("reminding").
		Start("s").
		UserTask("work", model.Assignee("alice")).
		BoundaryTimer("remind", "work", "1h", false).
		ServiceTask("notify", model.NoopHandler, model.Output("reminded", "true")).
		End("e2").
		End("e").
		Flow("s", "work").
		Flow("work", "e").
		Flow("remind", "notify").
		Flow("notify", "e2").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	f.tick(90 * time.Minute)
	// Reminder fired but the task is still open.
	vw, _ := f.e.Instance(v.ID)
	if vw.Status != StatusActive {
		t.Fatalf("status = %s", vw.Status)
	}
	if got, _ := vw.Vars["reminded"].AsBool(); !got {
		t.Error("non-interrupting boundary did not run")
	}
	wl := f.tasks.Worklist("alice")
	if len(wl) != 1 {
		t.Fatalf("alice worklist = %d", len(wl))
	}
	f.tasks.Start(wl[0].ID, "alice")
	f.tasks.Complete(wl[0].ID, "alice", nil)
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
	// The reminder must not fire again.
	f.tick(5 * time.Hour)
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s after late tick", got)
	}
}

func TestMessageCorrelation(t *testing.T) {
	f := newFixture(t)
	p := model.New("awaiting").
		Start("s").
		MessageCatch("paid", "payment.received", model.CorrelationKey("orderId")).
		ServiceTask("ship", model.NoopHandler).
		End("e").
		Seq("s", "paid", "ship", "e").
		MustBuild()
	if err := f.e.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v1, _ := f.e.StartInstance("awaiting", map[string]any{"orderId": "A-1"})
	v2, _ := f.e.StartInstance("awaiting", map[string]any{"orderId": "A-2"})

	// Wrong key: nobody resumes, message is buffered.
	n, buffered, err := f.e.Publish("payment.received", "A-9", map[string]any{"amount": 10})
	if err != nil || n != 0 || !buffered {
		t.Fatalf("publish wrong key: n=%d buffered=%v err=%v", n, buffered, err)
	}
	if instStatus(t, f, v1.ID) != StatusActive || instStatus(t, f, v2.ID) != StatusActive {
		t.Fatal("instances resumed on wrong key")
	}

	// Right key resumes only the matching instance and merges payload.
	n, _, err = f.e.Publish("payment.received", "A-1", map[string]any{"amount": 42})
	if err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	vw, _ := f.e.Instance(v1.ID)
	if vw.Status != StatusCompleted {
		t.Fatalf("v1 status = %s", vw.Status)
	}
	if got, _ := vw.Vars["amount"].AsInt(); got != 42 {
		t.Errorf("payload not merged: %v", vw.Vars["amount"])
	}
	if instStatus(t, f, v2.ID) != StatusActive {
		t.Fatal("v2 should still wait")
	}

	// Buffered delivery: a new instance with key A-9 consumes the
	// earlier buffered message immediately.
	v3, _ := f.e.StartInstance("awaiting", map[string]any{"orderId": "A-9"})
	if instStatus(t, f, v3.ID) != StatusCompleted {
		t.Fatal("buffered message not consumed")
	}
}

func TestEventGatewayRace(t *testing.T) {
	f := newFixture(t)
	build := func(id string) *model.Process {
		return model.New(id).
			Start("s").
			EventGateway("wait").
			MessageCatch("paid", "payment", model.CorrelationKey("oid")).
			TimerCatch("timeout", "24h").
			ServiceTask("happy", model.NoopHandler, model.Output("outcome", `"paid"`)).
			ServiceTask("sad", model.NoopHandler, model.Output("outcome", `"expired"`)).
			XOR("merge").
			End("e").
			Flow("s", "wait").
			Flow("wait", "paid").
			Flow("wait", "timeout").
			Flow("paid", "happy").
			Flow("timeout", "sad").
			Flow("happy", "merge").
			Flow("sad", "merge").
			Flow("merge", "e").
			MustBuild()
	}
	if err := f.e.Deploy(build("race")); err != nil {
		t.Fatal(err)
	}

	// Message wins.
	v1, _ := f.e.StartInstance("race", map[string]any{"oid": "X"})
	f.e.Publish("payment", "X", nil)
	vw, _ := f.e.Instance(v1.ID)
	if vw.Status != StatusCompleted {
		t.Fatalf("v1 = %s", vw.Status)
	}
	if got, _ := vw.Vars["outcome"].AsString(); got != "paid" {
		t.Errorf("outcome = %q", got)
	}
	// Timer must have been disarmed: advancing far must not break anything.
	f.tick(48 * time.Hour)

	// Timer wins.
	v2, _ := f.e.StartInstance("race", map[string]any{"oid": "Y"})
	f.tick(25 * time.Hour)
	vw2, _ := f.e.Instance(v2.ID)
	if vw2.Status != StatusCompleted {
		t.Fatalf("v2 = %s", vw2.Status)
	}
	if got, _ := vw2.Vars["outcome"].AsString(); got != "expired" {
		t.Errorf("outcome = %q", got)
	}
	// Late message correlates to nobody (gets buffered).
	if n, buffered, _ := f.e.Publish("payment", "Y", nil); n != 0 || !buffered {
		t.Errorf("late message: n=%d buffered=%v", n, buffered)
	}
}

func TestSubProcessAndCallActivity(t *testing.T) {
	f := newFixture(t)
	sub := model.New("body").
		Start("bs").
		ScriptTask("double", model.Output("x", "x * 2")).
		End("be").
		Seq("bs", "double", "be").
		MustBuild()
	parent := model.New("outer").
		Start("s").
		SubProcess("sp", sub).
		ScriptTask("inc", model.Output("x", "x + 1")).
		End("e").
		Seq("s", "sp", "inc", "e").
		MustBuild()
	v := deployAndStart(t, f, parent, map[string]any{"x": 5})
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	if got, _ := v.Vars["x"].AsInt(); got != 11 {
		t.Errorf("x = %v, want 11", v.Vars["x"])
	}

	// Call activity: deploy callee separately.
	callee := model.New("callee").
		Start("cs").
		ScriptTask("triple", model.Output("x", "x * 3")).
		End("ce").
		Seq("cs", "triple", "ce").
		MustBuild()
	if err := f.e.Deploy(callee); err != nil {
		t.Fatal(err)
	}
	caller := model.New("caller").
		Start("s").
		Call("invoke", "callee").
		End("e").
		Seq("s", "invoke", "e").
		MustBuild()
	v2 := deployAndStart(t, f, caller, map[string]any{"x": 2})
	if v2.Status != StatusCompleted {
		t.Fatalf("caller status = %s", v2.Status)
	}
	if got, _ := v2.Vars["x"].AsInt(); got != 6 {
		t.Errorf("x = %v, want 6", v2.Vars["x"])
	}

	// Missing callee faults.
	bad := model.New("badcaller").
		Start("s").Call("invoke", "ghost").End("e").
		Seq("s", "invoke", "e").MustBuild()
	v3 := deployAndStart(t, f, bad, nil)
	if v3.Status != StatusFaulted {
		t.Fatalf("bad caller = %s, want faulted", v3.Status)
	}
}

func TestTerminateEndCancelsEverything(t *testing.T) {
	f := newFixture(t)
	p := model.New("terminating").
		Start("s").
		AND("fork").
		UserTask("slow", model.Assignee("alice")).
		ServiceTask("fast", model.NoopHandler).
		TerminateEnd("kill").
		End("e").
		Flow("s", "fork").
		Flow("fork", "slow").
		Flow("fork", "fast").
		Flow("fast", "kill").
		Flow("slow", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed via terminate", v.Status)
	}
	// The user task was cancelled.
	wl := f.tasks.Worklist("alice")
	if len(wl) != 0 {
		t.Errorf("alice worklist = %v", wl)
	}
}

func TestCancelInstance(t *testing.T) {
	f := newFixture(t)
	p := model.New("cancellable").
		Start("s").
		UserTask("work", model.Assignee("alice")).
		End("e").
		Seq("s", "work", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	if err := f.e.CancelInstance(v.ID, "tester"); err != nil {
		t.Fatal(err)
	}
	if got := instStatus(t, f, v.ID); got != StatusCancelled {
		t.Fatalf("status = %s", got)
	}
	if len(f.tasks.Worklist("alice")) != 0 {
		t.Error("work item survived cancellation")
	}
	// Double cancel fails.
	if err := f.e.CancelInstance(v.ID, "again"); err == nil {
		t.Error("second cancel should fail")
	}
}

func TestIncidents(t *testing.T) {
	f := newFixture(t)
	// Unknown handler.
	p := model.New("nohandler").
		Start("s").ServiceTask("work", "ghost").End("e").
		Seq("s", "work", "e").MustBuild()
	v := deployAndStart(t, f, p, nil)
	if v.Status != StatusFaulted {
		t.Fatalf("status = %s", v.Status)
	}
	if f.hist.CountByType(history.IncidentRaised) == 0 {
		t.Error("no incident recorded")
	}

	// XOR with no enabled flow and no default.
	p2 := model.New("stuck").
		Start("s").XOR("gw").
		ServiceTask("a", model.NoopHandler).
		ServiceTask("b", model.NoopHandler).
		XOR("merge").End("e").
		Flow("s", "gw").
		FlowIf("gw", "a", "x > 100").
		FlowIf("gw", "b", "x > 200").
		Flow("a", "merge").Flow("b", "merge").Flow("merge", "e").
		MustBuild()
	v2 := deployAndStart(t, f, p2, map[string]any{"x": 1})
	if v2.Status != StatusFaulted {
		t.Fatalf("status = %s", v2.Status)
	}
}

func TestUnknownProcessAndInstance(t *testing.T) {
	f := newFixture(t)
	if _, err := f.e.StartInstance("ghost", nil); err == nil {
		t.Error("starting unknown process should fail")
	}
	if _, err := f.e.Instance("ghost"); err == nil {
		t.Error("unknown instance should fail")
	}
	if err := f.e.CancelInstance("ghost", ""); err == nil {
		t.Error("cancelling unknown instance should fail")
	}
	if _, err := f.e.Variables("ghost"); err == nil {
		t.Error("variables of unknown instance should fail")
	}
}

func TestSetVariableAndQueries(t *testing.T) {
	f := newFixture(t)
	p := model.New("vars").
		Start("s").UserTask("hold", model.Assignee("alice")).End("e").
		Seq("s", "hold", "e").MustBuild()
	v := deployAndStart(t, f, p, map[string]any{"a": 1})
	if err := f.e.SetVariable(v.ID, "b", "two"); err != nil {
		t.Fatal(err)
	}
	vars, err := f.e.Variables(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := vars["b"].AsString(); got != "two" {
		t.Errorf("b = %v", vars["b"])
	}
	if defs := f.e.Definitions(); len(defs) != 1 || defs[0] != "vars" {
		t.Errorf("Definitions = %v", defs)
	}
	if insts := f.e.Instances(); len(insts) != 1 || insts[0] != v.ID {
		t.Errorf("Instances = %v", insts)
	}
	if _, ok := f.e.Definition("vars"); !ok {
		t.Error("Definition lookup failed")
	}
}
