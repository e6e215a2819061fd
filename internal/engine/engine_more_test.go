package engine

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// inclusiveProcess: OR split over three guarded branches merging in an
// OR join. The join must wait for exactly the activated branches.
func inclusiveProcess() *model.Process {
	return model.New("incl").
		Start("s").
		OR("split", model.Default("dflt")).
		UserTask("a", model.Assignee("alice")).
		UserTask("b", model.Assignee("bob")).
		ServiceTask("c", model.NoopHandler).
		OR("join").
		End("e").
		Flow("s", "split").
		FlowIf("split", "a", "wantA == true").
		FlowIf("split", "b", "wantB == true").
		FlowID("dflt", "split", "c", "").
		Flow("a", "join").
		Flow("b", "join").
		Flow("c", "join").
		Flow("join", "e").
		MustBuild()
}

func TestInclusiveJoinWaitsForActivatedBranches(t *testing.T) {
	f := newFixture(t)
	if err := f.e.Deploy(inclusiveProcess()); err != nil {
		t.Fatal(err)
	}
	// Both user branches active: join must wait for both.
	v, _ := f.e.StartInstance("incl", map[string]any{"wantA": true, "wantB": true})
	if instStatus(t, f, v.ID) != StatusActive {
		t.Fatal("should wait for user tasks")
	}
	wlA := f.tasks.Worklist("alice")
	wlB := f.tasks.Worklist("bob")
	if len(wlA) != 1 || len(wlB) != 1 {
		t.Fatalf("worklists: alice=%d bob=%d", len(wlA), len(wlB))
	}
	f.tasks.Start(wlA[0].ID, "alice")
	f.tasks.Complete(wlA[0].ID, "alice", nil)
	// One branch done: the join still waits (bob's token is upstream).
	if got := instStatus(t, f, v.ID); got != StatusActive {
		t.Fatalf("join fired early: %s", got)
	}
	f.tasks.Start(wlB[0].ID, "bob")
	f.tasks.Complete(wlB[0].ID, "bob", nil)
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
	// The join fired exactly once.
	joins := 0
	for _, ev := range f.hist.EventsOf(v.ID) {
		if ev.Type == history.ElementCompleted && ev.ElementID == "join" {
			joins++
		}
	}
	if joins != 1 {
		t.Errorf("join completions = %d, want 1", joins)
	}
}

func TestInclusiveJoinSingleBranch(t *testing.T) {
	f := newFixture(t)
	if err := f.e.Deploy(inclusiveProcess()); err != nil {
		t.Fatal(err)
	}
	// Default branch only (service task): completes synchronously.
	v, _ := f.e.StartInstance("incl", nil)
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
	// Single user branch.
	v2, _ := f.e.StartInstance("incl", map[string]any{"wantA": true})
	wl := f.tasks.Worklist("alice")
	if len(wl) != 1 {
		t.Fatalf("alice worklist = %d", len(wl))
	}
	f.tasks.Start(wl[0].ID, "alice")
	f.tasks.Complete(wl[0].ID, "alice", nil)
	if got := instStatus(t, f, v2.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
}

func TestMultiInstanceParallelUserTasks(t *testing.T) {
	f := newFixture(t)
	p := model.New("reviews").
		Start("s").
		UserTask("review", model.Assignee("alice"),
			model.MultiParallel("docs", "doc"),
			model.Output("reviewed", "coalesce(reviewed, 0) + 1")).
		End("e").
		Seq("s", "review", "e").
		MustBuild()
	v := deployAndStart(t, f, p, map[string]any{
		"docs": []any{"d1", "d2", "d3"},
	})
	wl := f.tasks.Worklist("alice")
	if len(wl) != 3 {
		t.Fatalf("worklist = %d, want 3 parallel items", len(wl))
	}
	// Item data carries the element variable.
	seen := map[any]bool{}
	for _, it := range wl {
		seen[it.Data["doc"]] = true
	}
	if len(seen) != 3 {
		t.Errorf("element vars = %v", seen)
	}
	for i, it := range wl {
		f.tasks.Start(it.ID, "alice")
		f.tasks.Complete(it.ID, "alice", nil)
		status := instStatus(t, f, v.ID)
		if i < 2 && status != StatusActive {
			t.Fatalf("completed after %d items: %s", i+1, status)
		}
	}
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
	vars, _ := f.e.Variables(v.ID)
	if got, _ := vars["reviewed"].AsInt(); got != 3 {
		t.Errorf("reviewed = %v", vars["reviewed"])
	}
}

func TestMultiInstanceSequentialWithCompletionCondition(t *testing.T) {
	f := newFixture(t)
	p := model.New("seqmi").
		Start("s").
		UserTask("vote", model.Assignee("alice"),
			model.MultiSequential("voters", "voter"),
			model.CompletionCondition("approvals >= 2"),
			model.Output("approvals", "coalesce(approvals, 0) + (approved ? 1 : 0)")).
		End("e").
		Seq("s", "vote", "e").
		MustBuild()
	v := deployAndStart(t, f, p, map[string]any{
		"voters": []any{"v1", "v2", "v3", "v4"},
	})
	// Sequential: exactly one open item at a time.
	complete := func(approve bool) int {
		wl := f.tasks.Worklist("alice")
		if len(wl) != 1 {
			t.Fatalf("worklist = %d, want 1 (sequential)", len(wl))
		}
		f.tasks.Start(wl[0].ID, "alice")
		f.tasks.Complete(wl[0].ID, "alice", map[string]any{"approved": approve})
		return len(f.tasks.Worklist("alice"))
	}
	complete(true)
	complete(true) // approvals reaches 2: completion condition stops the MI
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s, want completed after condition", got)
	}
	vars, _ := f.e.Variables(v.ID)
	if got, _ := vars["approvals"].AsInt(); got != 2 {
		t.Errorf("approvals = %v", vars["approvals"])
	}
}

// TestMultiInstanceItemsTakeDueIn: a multi-instance user task gives
// each of its items the task's dueIn, as a single user task does, both
// when the item is created and when recovery issues it again. Without a
// dueIn an item takes the worklist's default SLA.
func TestMultiInstanceItemsTakeDueIn(t *testing.T) {
	const sla = 30 * time.Minute
	for _, tc := range []struct {
		name string
		opts []model.Opt
		due  time.Duration
	}{
		{"parallel", []model.Opt{model.DueIn("1h"), model.MultiParallel("xs", "x")}, time.Hour},
		{"sequential", []model.Opt{model.DueIn("1h"), model.MultiSequential("xs", "x")}, time.Hour},
		{"parallel without dueIn", []model.Opt{model.MultiParallel("xs", "x")}, sla},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := model.New("mi-due").Start("s").UserTask("review", append(tc.opts, model.Role("clerk"))...).End("e").
				Seq("s", "review", "e").MustBuild()
			journal := storage.NewMemJournal()
			first := newParkEnv(t, t0, journal, sla)
			if err := first.e.Deploy(p); err != nil {
				t.Fatal(err)
			}
			v, err := first.e.StartInstance("mi-due", map[string]any{"xs": []any{"a", "b"}})
			if err != nil {
				t.Fatal(err)
			}
			checkDue := func(when string, items []*task.Item) {
				t.Helper()
				if len(items) == 0 {
					t.Fatalf("%s: no open items", when)
				}
				for _, it := range items {
					if want := it.CreatedAt.Add(tc.due); !it.DueAt.Equal(want) {
						t.Errorf("%s: %s due %v, want %v", when, it.Name, it.DueAt, want)
					}
				}
			}
			created := first.openItems(v.ID)
			checkDue("created", created)
			reissued := first.restart(t, journal, sla).openItems(v.ID)
			checkDue("re-issued", reissued)
			for i := range reissued {
				if i >= len(created) || !reissued[i].DueAt.Equal(created[i].DueAt) {
					t.Errorf("re-issued items %v, created %v", reissued, created)
				}
			}
			// The next item comes later: a sequential task's second
			// item, or the parallel task's remaining one.
			first.tick(10 * time.Minute)
			it := created[0]
			if _, err := first.tasks.Claim(it.ID, "alice"); err != nil {
				t.Fatal(err)
			}
			if _, err := first.tasks.Start(it.ID, "alice"); err != nil {
				t.Fatal(err)
			}
			if _, err := first.tasks.Complete(it.ID, "alice", nil); err != nil {
				t.Fatal(err)
			}
			checkDue("next", first.openItems(v.ID))
		})
	}
}

func TestMultiInstanceSyncServiceTask(t *testing.T) {
	f := newFixture(t)
	var processed []string
	f.e.RegisterHandler("collect", func(tc TaskContext) (map[string]expr.Value, error) {
		s, _ := tc.Vars["item"].AsString()
		processed = append(processed, s)
		return nil, nil
	})
	p := model.New("batch").
		Start("s").
		ServiceTask("each", "collect", model.MultiSequential("items", "item")).
		End("e").
		Seq("s", "each", "e").
		MustBuild()
	v := deployAndStart(t, f, p, map[string]any{"items": []any{"x", "y", "z"}})
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	if len(processed) != 3 || processed[0] != "x" || processed[2] != "z" {
		t.Errorf("processed = %v", processed)
	}

	// Empty collection completes instantly.
	v2 := func() *InstanceView {
		vv, err := f.e.StartInstance("batch", map[string]any{"items": []any{}})
		if err != nil {
			t.Fatal(err)
		}
		return vv
	}()
	if v2.Status != StatusCompleted {
		t.Fatalf("empty MI status = %s", v2.Status)
	}
}

func TestRecoveryFromJournal(t *testing.T) {
	dir := t.TempDir()
	clock := timer.NewVirtualClock(t0)
	wheel := timer.NewWheelService(time.Millisecond, 256)
	journal, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dirr := resource.NewDirectory()
	dirr.AddUser(&resource.User{ID: "alice", Roles: []string{"clerk"}})
	tasks := task.NewService(task.Config{Directory: dirr, Now: clock.Now})
	e1, err := newTestEngine(Config{Journal: journal, Tasks: tasks, Timers: wheel, Clock: clock}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })

	p := model.New("persistent").
		Start("s").
		UserTask("approve", model.Assignee("alice")).
		TimerCatch("cooloff", "1h").
		MessageCatch("confirm", "confirmation", model.CorrelationKey("caseId")).
		End("e").
		Seq("s", "approve", "cooloff", "confirm", "e").
		MustBuild()
	if err := e1.Deploy(p); err != nil {
		t.Fatal(err)
	}
	// Three instances parked at three different wait states.
	vA, _ := e1.StartInstance("persistent", map[string]any{"caseId": "A"})
	vB, _ := e1.StartInstance("persistent", map[string]any{"caseId": "B"})
	vC, _ := e1.StartInstance("persistent", map[string]any{"caseId": "C"})
	// vB: complete the user task -> parked at timer.
	for _, it := range tasks.Worklist("alice") {
		if it.InstanceID == vB.ID {
			tasks.Start(it.ID, "alice")
			tasks.Complete(it.ID, "alice", nil)
		}
	}
	// vC: complete task, pass timer -> parked at message catch.
	for _, it := range tasks.Worklist("alice") {
		if it.InstanceID == vC.ID {
			tasks.Start(it.ID, "alice")
			tasks.Complete(it.ID, "alice", nil)
		}
	}
	wheel.AdvanceTo(clock.Advance(2 * time.Hour))
	// Both vB and vC passed their timers now; vB parked at message too.
	// Re-check: vB completed its timer only after its task. Both wait
	// for messages now.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// --- crash: rebuild everything from the journal ---
	journal2, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	clock2 := timer.NewVirtualClock(clock.Now())
	wheel2 := timer.NewWheelService(time.Millisecond, 256)
	tasks2 := task.NewService(task.Config{Directory: dirr, Now: clock2.Now})
	e2, err := newTestEngine(Config{Journal: journal2, Tasks: tasks2, Timers: wheel2, Clock: clock2}, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	e2.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })

	// vA: still at the user task; its work item was re-issued.
	gotA, err := e2.Instance(vA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotA.Status != StatusActive || len(gotA.ActiveTokens) != 1 || gotA.ActiveTokens[0].Wait != WaitUserTask {
		t.Fatalf("vA after recovery: %+v", gotA)
	}
	wl := tasks2.Worklist("alice")
	if len(wl) != 1 || wl[0].InstanceID != vA.ID {
		t.Fatalf("re-issued worklist = %v", wl)
	}
	tasks2.Start(wl[0].ID, "alice")
	tasks2.Complete(wl[0].ID, "alice", nil)
	// vA now waits at its timer; fire it, then send its message.
	wheel2.AdvanceTo(clock2.Advance(90 * time.Minute))
	if n, _, _ := e2.Publish("confirmation", "A", nil); n != 1 {
		t.Fatal("vA message not delivered after recovery")
	}
	if v, _ := e2.Instance(vA.ID); v.Status != StatusCompleted {
		t.Fatalf("vA = %s", v.Status)
	}

	// vB and vC wait for their messages (subscriptions re-registered).
	for _, tc := range []struct{ id, key string }{{vB.ID, "B"}, {vC.ID, "C"}} {
		if n, _, _ := e2.Publish("confirmation", tc.key, nil); n != 1 {
			t.Fatalf("message for %s not delivered after recovery", tc.key)
		}
		if v, _ := e2.Instance(tc.id); v.Status != StatusCompleted {
			t.Fatalf("%s = %s", tc.id, v.Status)
		}
	}
}

func TestRecoveryWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapDir := t.TempDir()
	journal, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := storage.OpenSnapshotStore(snapDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := newTestEngine(Config{Journal: journal, Snapshots: snaps, SnapshotEvery: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })
	if err := e1.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := e1.StartInstance("seq-3", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshots happened; the journal prefix was compacted.
	if journal.FirstIndex() == 1 {
		t.Log("journal not compacted (single segment); forcing snapshot")
		if err := e1.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	journal2, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	e2, err := newTestEngine(Config{Journal: journal2, Snapshots: snaps}, nil)
	if err != nil {
		t.Fatalf("recovery with snapshot: %v", err)
	}
	if got := len(e2.Instances()); got != 30 {
		t.Fatalf("recovered instances = %d, want 30", got)
	}
	for _, id := range e2.Instances() {
		v, err := e2.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusCompleted {
			t.Errorf("%s = %s", id, v.Status)
		}
	}
	// The engine keeps working after recovery.
	e2.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })
	v, err := e2.StartInstance("seq-3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCompleted {
		t.Errorf("post-recovery instance = %s", v.Status)
	}
	// Fresh instance IDs must not collide with recovered ones.
	if _, err := e2.Instance(v.ID); err != nil {
		t.Errorf("new instance id collides: %v", err)
	}
}

// Property: every randomly generated block-structured process (all
// service tasks) runs to completion.
func TestQuickRandomStructuredExecutes(t *testing.T) {
	f := newFixture(t)
	deployed := map[string]bool{}
	fn := func(seed int64, sz uint8) bool {
		p := model.RandomStructured(seed, int(sz%30)+1)
		if !deployed[p.ID] {
			if err := f.e.Deploy(p); err != nil {
				return false
			}
			deployed[p.ID] = true
		}
		v, err := f.e.StartInstance(p.ID, map[string]any{"rnd": int(seed % 97)})
		if err != nil {
			return false
		}
		return v.Status == StatusCompleted
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInstances(t *testing.T) {
	f := newFixture(t)
	if err := f.e.Deploy(model.Mixed()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v, err := f.e.StartInstance("mixed", map[string]any{"amount": g*100 + i})
				if err != nil {
					errs <- err
					return
				}
				if v.Status != StatusCompleted {
					errs <- fmt.Errorf("instance %s: %s", v.ID, v.Status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(f.e.Instances()); got != 200 {
		t.Errorf("instances = %d, want 200", got)
	}
}

func TestMessageBoundaryOnUserTask(t *testing.T) {
	f := newFixture(t)
	p := model.New("abortable").
		Start("s").
		UserTask("fill", model.Assignee("alice")).
		BoundaryMessage("aborted", "fill", "order.cancelled", true, model.CorrelationKey("oid")).
		ServiceTask("cleanup", model.NoopHandler).
		XOR("merge").
		End("e").
		Flow("s", "fill").
		Flow("fill", "merge").
		Flow("aborted", "cleanup").
		Flow("cleanup", "merge").
		Flow("merge", "e").
		MustBuild()
	v := deployAndStart(t, f, p, map[string]any{"oid": "O-7"})
	if n, _, _ := f.e.Publish("order.cancelled", "O-7", nil); n != 1 {
		t.Fatal("boundary message not delivered")
	}
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
	// Work item cancelled by the interrupting boundary.
	if wl := f.tasks.Worklist("alice"); len(wl) != 0 {
		t.Errorf("worklist = %v", wl)
	}
}

func TestFailedWorkItemRoutesToErrorBoundary(t *testing.T) {
	f := newFixture(t)
	p := model.New("failable").
		Start("s").
		UserTask("verify", model.Assignee("alice")).
		BoundaryError("failed", "verify", "task-failed").
		ServiceTask("remediate", model.NoopHandler).
		XOR("merge").
		End("e").
		Flow("s", "verify").
		Flow("verify", "merge").
		Flow("failed", "remediate").
		Flow("remediate", "merge").
		Flow("merge", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	wl := f.tasks.Worklist("alice")
	f.tasks.Start(wl[0].ID, "alice")
	f.tasks.Fail(wl[0].ID, "alice", "data incomplete")
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
	ran := map[string]bool{}
	for _, ev := range f.hist.EventsOf(v.ID) {
		if ev.Type == history.ElementCompleted {
			ran[ev.ElementID] = true
		}
	}
	if !ran["remediate"] {
		t.Error("error boundary path not taken")
	}
}

func TestSkippedWorkItemContinuesFlow(t *testing.T) {
	f := newFixture(t)
	p := model.New("skippable").
		Start("s").
		UserTask("optional", model.Assignee("alice")).
		End("e").
		Seq("s", "optional", "e").
		MustBuild()
	v := deployAndStart(t, f, p, nil)
	wl := f.tasks.Worklist("alice")
	if _, err := f.tasks.Skip(wl[0].ID, "not needed"); err != nil {
		t.Fatal(err)
	}
	if got := instStatus(t, f, v.ID); got != StatusCompleted {
		t.Fatalf("status = %s", got)
	}
}

func TestSendTaskThrowsToSibling(t *testing.T) {
	f := newFixture(t)
	// One process sends, another receives; correlation by key.
	sender := model.New("sender").
		Start("s").
		SendTask("emit", "handoff", model.CorrelationKey("k")).
		End("e").
		Seq("s", "emit", "e").
		MustBuild()
	receiver := model.New("receiver").
		Start("s").
		ReceiveTask("recv", "handoff", model.CorrelationKey("k")).
		End("e").
		Seq("s", "recv", "e").
		MustBuild()
	if err := f.e.Deploy(sender); err != nil {
		t.Fatal(err)
	}
	if err := f.e.Deploy(receiver); err != nil {
		t.Fatal(err)
	}
	vr, _ := f.e.StartInstance("receiver", map[string]any{"k": "shared"})
	if instStatus(t, f, vr.ID) != StatusActive {
		t.Fatal("receiver should wait")
	}
	vs, _ := f.e.StartInstance("sender", map[string]any{"k": "shared", "payload": 7})
	if vs.Status != StatusCompleted {
		t.Fatalf("sender = %s", vs.Status)
	}
	got, _ := f.e.Instance(vr.ID)
	if got.Status != StatusCompleted {
		t.Fatalf("receiver = %s", got.Status)
	}
	// The sender's variables travelled with the message.
	if p, _ := got.Vars["payload"].AsInt(); p != 7 {
		t.Errorf("payload = %v", got.Vars["payload"])
	}
}
