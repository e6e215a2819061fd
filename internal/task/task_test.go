package task

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"bpms/internal/resource"
	"bpms/internal/timer"
)

var base = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func newService(t *testing.T, autoAlloc bool) (*Service, *resource.Directory, *time.Time) {
	t.Helper()
	d := resource.NewDirectory()
	d.AddUser(&resource.User{ID: "alice", Roles: []string{"clerk"}})
	d.AddUser(&resource.User{ID: "bob", Roles: []string{"clerk"}})
	d.AddUser(&resource.User{ID: "eve", Roles: []string{"auditor"}})
	now := base
	svc := NewService(Config{
		Directory:    d,
		AutoAllocate: autoAlloc,
		Now:          func() time.Time { return now },
	})
	return svc, d, &now
}

func TestDirectAssignment(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, err := svc.Create(Spec{InstanceID: "i1", ElementID: "approve", Assignee: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if it.State != Allocated || it.Assignee != "alice" {
		t.Fatalf("item = %+v", it)
	}
	wl := svc.Worklist("alice")
	if len(wl) != 1 || wl[0].ID != it.ID {
		t.Errorf("worklist = %v", wl)
	}
	if svc.Load("alice") != 1 {
		t.Errorf("Load = %d", svc.Load("alice"))
	}
}

func TestOfferAndClaim(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, err := svc.Create(Spec{InstanceID: "i1", ElementID: "review", Role: "clerk"})
	if err != nil {
		t.Fatal(err)
	}
	if it.State != Offered || len(it.OfferedTo) != 2 {
		t.Fatalf("item = %+v", it)
	}
	if got := svc.OfferedItems("alice"); len(got) != 1 {
		t.Errorf("alice offers = %d", len(got))
	}
	// eve is not a clerk: claiming must fail.
	if _, err := svc.Claim(it.ID, "eve"); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("eve claim err = %v", err)
	}
	claimed, err := svc.Claim(it.ID, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if claimed.State != Allocated || claimed.Assignee != "bob" {
		t.Fatalf("claimed = %+v", claimed)
	}
	// Offers are cleared after claiming.
	if got := svc.OfferedItems("alice"); len(got) != 0 {
		t.Errorf("alice offers after claim = %d", len(got))
	}
}

func TestAutoAllocateShortestQueue(t *testing.T) {
	svc, _, _ := newService(t, true)
	// Four tasks spread across two clerks: 2 and 2.
	for i := 0; i < 4; i++ {
		it, err := svc.Create(Spec{InstanceID: "i1", ElementID: "work", Role: "clerk"})
		if err != nil {
			t.Fatal(err)
		}
		if it.State != Allocated {
			t.Fatalf("auto-allocate left item %s in %s", it.ID, it.State)
		}
	}
	if a, b := svc.Load("alice"), svc.Load("bob"); a != 2 || b != 2 {
		t.Errorf("loads = alice:%d bob:%d, want 2/2", a, b)
	}
}

func TestFullLifecycle(t *testing.T) {
	svc, _, nowPtr := newService(t, false)
	var transitions []string
	svc.Subscribe(func(it *Item, from, to State) {
		transitions = append(transitions, from.String()+">"+to.String())
	})
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Role: "clerk", Data: map[string]any{"k": 1}})
	it, err := svc.Claim(it.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	*nowPtr = nowPtr.Add(time.Minute)
	it, err = svc.Start(it.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if it.State != Started || it.StartedAt.IsZero() {
		t.Fatalf("started = %+v", it)
	}
	*nowPtr = nowPtr.Add(time.Minute)
	it, err = svc.Complete(it.ID, "alice", map[string]any{"approved": true})
	if err != nil {
		t.Fatal(err)
	}
	if it.State != Completed || it.Outcome["approved"] != true || it.ClosedAt.IsZero() {
		t.Fatalf("completed = %+v", it)
	}
	if svc.Load("alice") != 0 {
		t.Errorf("Load after completion = %d", svc.Load("alice"))
	}
	want := []string{"created>created", "created>offered", "offered>allocated", "allocated>started", "started>completed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestIllegalTransitions(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Assignee: "alice"})
	// Cannot complete before starting.
	if _, err := svc.Complete(it.ID, "alice", nil); !errors.Is(err, ErrBadTransition) {
		t.Errorf("complete unstarted: %v", err)
	}
	// Only the assignee can start.
	if _, err := svc.Start(it.ID, "bob"); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("foreign start: %v", err)
	}
	svc.Start(it.ID, "alice")
	// A started item cannot be skipped.
	if _, err := svc.Skip(it.ID, "nope"); !errors.Is(err, ErrBadTransition) {
		t.Errorf("skip started: %v", err)
	}
	svc.Complete(it.ID, "alice", nil)
	// Terminal items accept nothing.
	if _, err := svc.Start(it.ID, "alice"); !errors.Is(err, ErrBadTransition) {
		t.Errorf("start completed: %v", err)
	}
	if _, err := svc.Cancel(it.ID, "x"); !errors.Is(err, ErrBadTransition) {
		t.Errorf("cancel completed: %v", err)
	}
	// Unknown item.
	if _, err := svc.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing: %v", err)
	}
}

func TestFailAndReason(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Assignee: "alice"})
	svc.Start(it.ID, "alice")
	failed, err := svc.Fail(it.ID, "alice", "cannot verify data")
	if err != nil {
		t.Fatal(err)
	}
	if failed.State != Failed || failed.Reason != "cannot verify data" {
		t.Fatalf("failed = %+v", failed)
	}
}

func TestDelegate(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Assignee: "alice"})
	del, err := svc.Delegate(it.ID, "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if del.Assignee != "bob" || del.State != Allocated {
		t.Fatalf("delegated = %+v", del)
	}
	if svc.Load("alice") != 0 || svc.Load("bob") != 1 {
		t.Errorf("loads = %d/%d", svc.Load("alice"), svc.Load("bob"))
	}
	// Wrong delegator.
	if _, err := svc.Delegate(it.ID, "alice", "eve"); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("foreign delegate: %v", err)
	}
	// A started item can be delegated and lands Allocated.
	svc.Start(it.ID, "bob")
	del, err = svc.Delegate(it.ID, "bob", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if del.State != Allocated || del.Assignee != "alice" {
		t.Fatalf("redelegated = %+v", del)
	}
}

func TestRelease(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Role: "clerk"})
	svc.Claim(it.ID, "alice")
	rel, err := svc.Release(it.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if rel.State != Offered {
		t.Fatalf("released = %+v", rel)
	}
	if svc.Load("alice") != 0 {
		t.Errorf("Load after release = %d", svc.Load("alice"))
	}
	// bob can now claim it.
	if _, err := svc.Claim(it.ID, "bob"); err != nil {
		t.Errorf("bob claim after release: %v", err)
	}
}

// TestOverdueAndDue: an item with a due time holds one timer entry; it
// is reported once when the entry fires while it is open, and an item
// closed first cancels its entry and is never reported.
func TestOverdueAndDue(t *testing.T) {
	now := base
	wheel := timer.NewWheelService(time.Second, 64)
	var reported []OverdueItem
	svc := NewService(Config{
		Directory: resource.NewDirectory(),
		Now:       func() time.Time { return now },
		Timers:    wheel,
		OnOverdue: func(o OverdueItem) { reported = append(reported, o) },
	})
	advance := func(d time.Duration) {
		now = now.Add(d)
		wheel.AdvanceTo(now)
	}
	late, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Assignee: "alice", Due: time.Hour})
	done, _ := svc.Create(Spec{InstanceID: "i2", ElementID: "t", Assignee: "alice", Due: time.Hour})
	svc.Create(Spec{InstanceID: "i3", ElementID: "t", Assignee: "alice"}) // no deadline
	if late.DueAt.IsZero() {
		t.Fatal("DueAt not set")
	}
	if wheel.Pending() != 2 {
		t.Fatalf("pending entries = %d, want 2", wheel.Pending())
	}
	advance(30 * time.Minute)
	if got := svc.Overdue(); len(got) != 0 || len(reported) != 0 {
		t.Errorf("not yet overdue: %v, reported %v", got, reported)
	}
	// Closing an item cancels its entry.
	svc.Start(done.ID, "alice")
	svc.Complete(done.ID, "alice", nil)
	if wheel.Pending() != 1 {
		t.Errorf("pending entries after completion = %d, want 1", wheel.Pending())
	}
	advance(30 * time.Minute)
	got := svc.Overdue()
	if len(got) != 1 || got[0].Item.ID != late.ID || !got[0].Detected.Equal(late.DueAt) {
		t.Fatalf("overdue = %+v, want %s detected at %v", got, late.ID, late.DueAt)
	}
	advance(time.Hour)
	if len(reported) != 1 || reported[0].Item.ID != late.ID {
		t.Fatalf("reported = %+v, want %s once", reported, late.ID)
	}
	// Completing an overdue item takes it off the set.
	svc.Start(late.ID, "alice")
	svc.Complete(late.ID, "alice", nil)
	if got := svc.Overdue(); len(got) != 0 {
		t.Errorf("completed item overdue: %v", got)
	}
}

func TestWorklistOrdering(t *testing.T) {
	svc, _, nowPtr := newService(t, false)
	lo, _ := svc.Create(Spec{InstanceID: "i", ElementID: "a", Assignee: "alice", Priority: 1})
	*nowPtr = nowPtr.Add(time.Second)
	hi, _ := svc.Create(Spec{InstanceID: "i", ElementID: "b", Assignee: "alice", Priority: 9})
	*nowPtr = nowPtr.Add(time.Second)
	mid, _ := svc.Create(Spec{InstanceID: "i", ElementID: "c", Assignee: "alice", Priority: 5})
	wl := svc.Worklist("alice")
	if len(wl) != 3 || wl[0].ID != hi.ID || wl[1].ID != mid.ID || wl[2].ID != lo.ID {
		t.Errorf("worklist order: %v %v %v", wl[0].ID, wl[1].ID, wl[2].ID)
	}
}

func TestByStateAndCapabilityRouting(t *testing.T) {
	svc, d, _ := newService(t, false)
	d.AddUser(&resource.User{ID: "frank", Roles: []string{"clerk"}, Capabilities: []string{"fraud"}})
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "check", Role: "clerk", Capability: "fraud"})
	// Only frank has the capability.
	if len(it.OfferedTo) != 1 || it.OfferedTo[0] != "frank" {
		t.Fatalf("offeredTo = %v", it.OfferedTo)
	}
	if got := svc.ByState(Offered); len(got) != 1 {
		t.Errorf("ByState(Offered) = %d", len(got))
	}
	if got := svc.ByState(Completed); len(got) != 0 {
		t.Errorf("ByState(Completed) = %d", len(got))
	}
}

func TestCancelClearsQueues(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Role: "clerk"})
	svc.Claim(it.ID, "alice")
	svc.Start(it.ID, "alice")
	got, err := svc.Cancel(it.ID, "instance cancelled")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != Cancelled || got.Reason != "instance cancelled" {
		t.Fatalf("cancelled = %+v", got)
	}
	if svc.Load("alice") != 0 {
		t.Error("queue not cleared on cancel")
	}
}

func TestStateStringAndTerminal(t *testing.T) {
	if Created.String() != "created" || Completed.String() != "completed" {
		t.Error("state names wrong")
	}
	if Created.Terminal() || Started.Terminal() {
		t.Error("non-terminal states misreported")
	}
	for _, s := range []State{Completed, Failed, Skipped, Cancelled} {
		if !s.Terminal() {
			t.Errorf("%s should be terminal", s)
		}
	}
}

// TestItemJSONOmitsUnsetTimes: a fresh offered item's JSON has no
// lifecycle time it has not reached, and each time appears once set,
// in the form time.Time writes it. Decoding the JSON gives the item back.
func TestItemJSONOmitsUnsetTimes(t *testing.T) {
	svc, _, now := newService(t, false)
	it, err := svc.Create(Spec{ProcessID: "p", InstanceID: "i1", ElementID: "review", Role: "clerk", Data: map[string]any{"n": 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	keys := func(it *Item) map[string]any {
		t.Helper()
		data, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		var back Item
		if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(&back, it) {
			t.Errorf("%s decodes to %+v (%v), want %+v", data, back, err, it)
		}
		return m
	}
	m := keys(it)
	for _, k := range []string{"dueAt", "allocatedAt", "startedAt", "closedAt"} {
		if v, ok := m[k]; ok {
			t.Errorf("a fresh offered item carries %q: %v", k, v)
		}
	}
	if m["createdAt"] != base.Format(time.RFC3339Nano) || m["state"] != "offered" || m["instanceId"] != "i1" {
		t.Errorf("fresh item JSON = %v", m)
	}
	*now = base.Add(time.Minute)
	if _, err := svc.Claim(it.ID, "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Start(it.ID, "bob"); err != nil {
		t.Fatal(err)
	}
	done, err := svc.Complete(it.ID, "bob", nil)
	if err != nil {
		t.Fatal(err)
	}
	m = keys(done)
	for _, k := range []string{"allocatedAt", "startedAt", "closedAt"} {
		if m[k] != now.Format(time.RFC3339Nano) {
			t.Errorf("completed item %q = %v, want %v", k, m[k], *now)
		}
	}
	if _, ok := m["dueAt"]; ok {
		t.Errorf("an item without a deadline carries dueAt: %v", m)
	}
}
