package task

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bpms/internal/resource"
)

// refPage is the brute-force reference every page query is checked
// against: scan the item maps, filter, sort with itemLess, slice. An
// empty answer is nil, as it is from the service. Single-goroutine
// tests only: the items are read outside the stripe locks.
func refPage(svc *Service, keep func(*Item) bool, offset, limit int) []*Item {
	var all []*Item
	for _, st := range svc.stripes {
		for _, it := range st.items {
			if keep(it) {
				all = append(all, it)
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return itemLess(all[a], all[b]) })
	if offset < 0 {
		offset = 0
	}
	if offset >= len(all) {
		return nil
	}
	all = all[offset:]
	if limit >= 0 && len(all) > limit {
		all = all[:limit]
	}
	var out []*Item
	for _, it := range all {
		out = append(out, it.clone())
	}
	return out
}

func onWorklist(user string) func(*Item) bool {
	return func(it *Item) bool {
		return it.Assignee == user && (it.State == Allocated || it.State == Started)
	}
}

func offeredTo(user string) func(*Item) bool {
	return func(it *Item) bool { return it.State == Offered && slices.Contains(it.OfferedTo, user) }
}

func inState(state State) func(*Item) bool {
	return func(it *Item) bool { return it.State == state }
}

// userInState is what GET /tasks?user=&state= has always answered.
func userInState(user string, state State) func(*Item) bool {
	if state == Offered {
		return offeredTo(user)
	}
	return func(it *Item) bool { return it.State == state && it.Assignee == user }
}

// checkPages compares the four page queries at one (offset, limit)
// with the reference.
func checkPages(t *testing.T, svc *Service, user string, state State, offset, limit int) {
	t.Helper()
	for _, q := range []struct {
		name      string
		got, want []*Item
	}{
		{"WorklistPage", svc.WorklistPage(user, offset, limit), refPage(svc, onWorklist(user), offset, limit)},
		{"OfferedPage", svc.OfferedPage(user, offset, limit), refPage(svc, offeredTo(user), offset, limit)},
		{"ByStatePage", svc.ByStatePage(state, offset, limit), refPage(svc, inState(state), offset, limit)},
		{"UserStatePage", svc.UserStatePage(user, state, offset, limit), refPage(svc, userInState(user, state), offset, limit)},
	} {
		// DeepEqual also tells nil from empty, which the API's
		// {"worklist","offered"} shape encodes differently.
		if !reflect.DeepEqual(q.got, q.want) {
			got, _ := json.Marshal(q.got)
			want, _ := json.Marshal(q.want)
			t.Errorf("%d stripes: %s(%s, %s, offset %d, limit %d)\n got %s\nwant %s",
				len(svc.stripes), q.name, user, state, offset, limit, got, want)
		}
	}
}

// checkConsistency verifies every secondary index against a
// ground-truth scan of the stripe item maps: the per-user
// allocated/started and offered indexes and the per-state indexes must
// hold exactly the stripe's matching items in strict worklist order,
// and the due-time heaps and the cross-stripe load counters must agree
// with the items themselves.
func checkConsistency(t *testing.T, svc *Service) {
	t.Helper()
	type flat struct {
		it     *Item
		stripe int
	}
	all := map[string]flat{}
	wantLoads := map[string]int{}
	users := map[string]bool{} // every user an item or an index names
	for si, st := range svc.stripes {
		st.mu.Lock()
		for id, it := range st.items {
			all[id] = flat{it.clone(), si}
			if (it.State == Allocated || it.State == Started) && it.Assignee != "" {
				wantLoads[it.Assignee]++
			}
			users[it.Assignee] = true
			for _, u := range it.OfferedTo {
				users[u] = true
			}
		}
		checkIndex := func(name string, o *ordered, want func(*Item) bool) {
			var live []*Item
			if o != nil {
				live = o.buf[o.head:]
				for _, it := range o.buf[:o.head] {
					if it != nil {
						t.Errorf("stripe %d: %s keeps %s alive in a free slot", si, name, it.ID)
					}
				}
			}
			for i, it := range live {
				if st.items[it.ID] != it {
					t.Errorf("stripe %d: %s holds %s, which is not the stripe's item", si, name, it.ID)
				} else if !want(it) {
					t.Errorf("stripe %d: %s holds %s (state %s, assignee %q, offered to %v)", si, name, it.ID, it.State, it.Assignee, it.OfferedTo)
				}
				if i > 0 && !itemLess(live[i-1], it) {
					t.Errorf("stripe %d: %s out of order at %d: %s before %s", si, name, i, live[i-1].ID, it.ID)
				}
			}
			n := 0
			for _, it := range st.items {
				if want(it) {
					n++
				}
			}
			if n != len(live) {
				t.Errorf("stripe %d: %s holds %d items, ground truth %d", si, name, len(live), n)
			}
		}
		for name, index := range map[string]map[string]*ordered{"byUser": st.byUser, "offered": st.offered} {
			for user, o := range index {
				users[user] = true
				if o.len() == 0 {
					t.Errorf("stripe %d: empty %s entry for %s", si, name, user)
				}
			}
		}
		for user := range users {
			checkIndex("byUser["+user+"]", st.byUser[user], onWorklist(user))
			checkIndex("offered["+user+"]", st.offered[user], offeredTo(user))
		}
		for state := range st.byState {
			checkIndex("byState["+State(state).String()+"]", &st.byState[state], inState(State(state)))
		}
		// due heap: entries reference live items with that deadline, at
		// most one entry per item, and every OPEN item with a deadline
		// is present (closed items may linger until lazily popped).
		dueIDs := map[string]bool{}
		for _, e := range st.due {
			it, ok := st.items[e.id]
			if !ok || !it.DueAt.Equal(e.at) {
				t.Errorf("stripe %d: due entry %s@%v does not match its item", si, e.id, e.at)
			}
			if dueIDs[e.id] {
				t.Errorf("stripe %d: duplicate due entry for %s", si, e.id)
			}
			dueIDs[e.id] = true
		}
		for id, it := range st.items {
			if !it.State.Terminal() && !it.DueAt.IsZero() && !dueIDs[id] {
				t.Errorf("stripe %d: open item %s with deadline missing from due heap", si, id)
			}
		}
		st.mu.Unlock()
	}
	// Load counters match the ground truth exactly.
	svc.loadMu.RLock()
	for user, n := range svc.loads {
		if wantLoads[user] != n {
			t.Errorf("loads[%s] = %d, ground truth %d", user, n, wantLoads[user])
		}
	}
	for user, n := range wantLoads {
		if svc.loads[user] != n {
			t.Errorf("loads[%s] missing (ground truth %d)", user, n)
		}
	}
	svc.loadMu.RUnlock()

	// Query answers match brute-force scans over the ground truth.
	bruteOverdue := func(now time.Time) map[string]bool {
		out := map[string]bool{}
		for id, f := range all {
			if !f.it.State.Terminal() && !f.it.DueAt.IsZero() && f.it.DueAt.Before(now) {
				out[id] = true
			}
		}
		return out
	}
	for _, now := range []time.Time{base, base.Add(30 * time.Minute), base.Add(24 * time.Hour)} {
		want := bruteOverdue(now)
		got := svc.Overdue(now)
		if len(got) != len(want) {
			t.Errorf("Overdue(%v) = %d items, brute force %d", now, len(got), len(want))
		}
		for _, it := range got {
			if !want[it.ID] {
				t.Errorf("Overdue(%v) returned %s, not overdue", now, it.ID)
			}
		}
	}
	// Every full listing matches the brute-force reference.
	for user := range users {
		for state := Created; state <= Cancelled; state++ {
			checkPages(t, svc, user, state, 0, -1)
		}
	}
}

// TestIndexConsistencyRandomOps drives one seeded random op stream —
// creates with random priority and colliding creation times, and every
// lifecycle verb — through services of 1, 4 and 8 stripes in lockstep.
// After every step the page queries at a random (offset, limit) must
// equal the brute-force reference on each service (so striped N ≡
// striped 1); the index structure itself is checked every 250 steps.
// A failure prints the seed's op trace.
func TestIndexConsistencyRandomOps(t *testing.T) {
	for _, seed := range []int64{13, 14, 15} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { randomOps(t, seed, 1000) })
	}
}

func randomOps(t *testing.T, seed int64, steps int) {
	users := []string{"alice", "bob", "carol", "dave", "erin"}
	d := resource.NewDirectory()
	for _, u := range users {
		d.AddUser(&resource.User{ID: u, Roles: []string{"clerk"}})
	}
	now := base
	var svcs []*Service
	for _, stripes := range []int{1, 4, 8} {
		svcs = append(svcs, NewService(Config{
			Directory: d,
			Stripes:   stripes,
			Now:       func() time.Time { return now },
		}))
	}
	rng := rand.New(rand.NewSource(seed))
	var ids, trace []string
	user := func() string { return users[rng.Intn(len(users))] }
	// each applies one op to every service; the services see the same
	// clock and mint the same IDs, so they stay in the same state.
	each := func(desc string, op func(svc *Service)) {
		trace = append(trace, fmt.Sprintf("%4d %s", len(trace), desc))
		for _, svc := range svcs {
			op(svc)
		}
	}
	for step := 0; step < steps && !t.Failed(); step++ {
		// Half the steps keep the clock where it is: equal creation
		// times fall through to the ID tie-break (wi-10 < wi-9).
		now = now.Add(time.Duration(rng.Intn(2)) * time.Second)
		if len(ids) == 0 || rng.Intn(10) < 3 {
			spec := Spec{InstanceID: "i", ElementID: fmt.Sprintf("e%d", step), Priority: rng.Intn(5)}
			switch rng.Intn(3) {
			case 0:
				spec.Assignee = user()
			case 1:
				spec.Role = "clerk"
			}
			if rng.Intn(2) == 0 {
				spec.Due = time.Duration(1+rng.Intn(120)) * time.Minute
			}
			var id string
			each(fmt.Sprintf("create %+v", spec), func(svc *Service) {
				it, err := svc.Create(spec)
				if err != nil {
					t.Fatal(err)
				}
				id = it.ID
			})
			ids = append(ids, id)
		} else {
			id := ids[rng.Intn(len(ids))]
			cur, err := svcs[0].Get(id)
			if err != nil {
				t.Fatal(err)
			}
			other := user()
			switch rng.Intn(8) {
			case 0:
				each("claim "+id+" "+other, func(svc *Service) { svc.Claim(id, other) })
			case 1:
				each("start "+id, func(svc *Service) { svc.Start(id, cur.Assignee) })
			case 2:
				each("complete "+id, func(svc *Service) { svc.Complete(id, cur.Assignee, nil) })
			case 3:
				each("fail "+id, func(svc *Service) { svc.Fail(id, cur.Assignee, "nope") })
			case 4:
				each("skip "+id, func(svc *Service) { svc.Skip(id, "skipped") })
			case 5:
				each("cancel "+id, func(svc *Service) { svc.Cancel(id, "cancelled") })
			case 6:
				each("delegate "+id+" to "+other, func(svc *Service) { svc.Delegate(id, cur.Assignee, other) })
			case 7:
				each("release "+id, func(svc *Service) { svc.Release(id, cur.Assignee) })
			}
		}
		// -1 and 0 are legal limits (everything, nothing); offsets
		// reach past the end of any list.
		u, state := user(), State(rng.Intn(len(stateNames)))
		offset, limit := rng.Intn(len(ids)+3)-1, rng.Intn(12)-1
		if rng.Intn(3) == 0 {
			offset = 0
		}
		for _, svc := range svcs {
			checkPages(t, svc, u, state, offset, limit)
			if step%250 == 249 || step == steps-1 {
				checkConsistency(t, svc)
			}
		}
	}
	if t.Failed() {
		t.Logf("seed %d op trace:\n%s", seed, strings.Join(trace, "\n"))
	}
}

// TestStripedConcurrent hammers an 8-stripe service with parallel
// writers (full lifecycles, delegations, releases) and readers
// (Worklist, OfferedItems, ByState, Overdue, Load, Stats) under
// -race, then checks index consistency and final counts.
func TestStripedConcurrent(t *testing.T) {
	const (
		workers = 8
		per     = 200
	)
	d := resource.NewDirectory()
	for w := 0; w < workers; w++ {
		d.AddUser(&resource.User{ID: fmt.Sprintf("w%d", w), Roles: []string{"crew"}})
	}
	svc := NewService(Config{Directory: d, Stripes: 8})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers poll every surface concurrently with the writers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			user := fmt.Sprintf("w%d", r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				svc.Worklist(user)
				svc.OfferedItems(user)
				svc.ByState(Started)
				svc.Overdue(time.Now())
				svc.Load(user)
				svc.Stats()
			}
		}(r)
	}
	errc := make(chan error, workers)
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			me := fmt.Sprintf("w%d", w)
			peer := fmt.Sprintf("w%d", (w+1)%workers)
			for i := 0; i < per; i++ {
				it, err := svc.Create(Spec{
					InstanceID: "i", ElementID: "e", Assignee: me,
					Priority: i % 5, Due: time.Hour,
				})
				if err != nil {
					errc <- err
					return
				}
				switch i % 4 {
				case 0: // plain lifecycle
					_, err = svc.Start(it.ID, me)
					if err == nil {
						_, err = svc.Complete(it.ID, me, nil)
					}
				case 1: // delegate, peer completes
					_, err = svc.Delegate(it.ID, me, peer)
					if err == nil {
						if _, err2 := svc.Start(it.ID, peer); err2 == nil {
							svc.Complete(it.ID, peer, nil)
						}
					}
				case 2: // cancel
					_, err = svc.Cancel(it.ID, "test")
				case 3: // fail
					_, err = svc.Start(it.ID, me)
					if err == nil {
						_, err = svc.Fail(it.ID, me, "test")
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	checkConsistency(t, svc)
	st := svc.Stats()
	if st.Items != workers*per {
		t.Errorf("Stats.Items = %d, want %d", st.Items, workers*per)
	}
	// Delegated items may still be open when their delegator raced the
	// peer's completion; everything else is terminal.
	if st.Open > workers*per/4 {
		t.Errorf("Stats.Open = %d, too many open items", st.Open)
	}
	if st.Stripes != 8 || len(st.PerStripe) != 8 {
		t.Errorf("Stats stripes = %d/%d", st.Stripes, len(st.PerStripe))
	}
}

// TestDelegateReleaseCrossUser verifies the per-user indexes and load
// counters move with the item on delegation and release.
func TestDelegateReleaseCrossUser(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, err := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Role: "clerk", Due: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Claim(it.ID, "alice"); err != nil {
		t.Fatal(err)
	}
	if svc.Load("alice") != 1 || len(svc.Worklist("alice")) != 1 {
		t.Fatalf("alice queue = %d/%d", svc.Load("alice"), len(svc.Worklist("alice")))
	}
	// Delegate a started item: index entries move alice -> bob.
	if _, err := svc.Start(it.ID, "alice"); err != nil {
		t.Fatal(err)
	}
	del, err := svc.Delegate(it.ID, "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if del.State != Allocated || del.Assignee != "bob" {
		t.Fatalf("delegated = %+v", del)
	}
	if svc.Load("alice") != 0 || svc.Load("bob") != 1 {
		t.Errorf("loads after delegate = %d/%d", svc.Load("alice"), svc.Load("bob"))
	}
	if len(svc.Worklist("alice")) != 0 || len(svc.Worklist("bob")) != 1 {
		t.Errorf("worklists after delegate = %d/%d", len(svc.Worklist("alice")), len(svc.Worklist("bob")))
	}
	// Release from bob: the item returns to both clerks' offered
	// lists, and bob's allocated index entry is gone.
	rel, err := svc.Release(it.ID, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if rel.State != Offered || len(rel.OfferedTo) != 2 {
		t.Fatalf("released = %+v", rel)
	}
	if svc.Load("bob") != 0 || len(svc.Worklist("bob")) != 0 {
		t.Errorf("bob queue after release = %d/%d", svc.Load("bob"), len(svc.Worklist("bob")))
	}
	if len(svc.OfferedItems("alice")) != 1 || len(svc.OfferedItems("bob")) != 1 {
		t.Errorf("offers after release = %d/%d", len(svc.OfferedItems("alice")), len(svc.OfferedItems("bob")))
	}
	// Still overdue-indexed across the moves.
	if got := svc.Overdue(base.Add(2 * time.Hour)); len(got) != 1 {
		t.Errorf("overdue after delegate+release = %d", len(got))
	}
	checkConsistency(t, svc)
}

// TestClaimStarted: only the assignee may claim a started item back
// to Allocated (a self-reset); another user's claim is rejected, so
// in-progress work cannot be seized through Claim.
func TestClaimStarted(t *testing.T) {
	svc, _, _ := newService(t, false)
	it, _ := svc.Create(Spec{InstanceID: "i1", ElementID: "t", Assignee: "alice"})
	svc.Start(it.ID, "alice")
	if _, err := svc.Claim(it.ID, "bob"); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("foreign claim of started item: %v", err)
	}
	got, err := svc.Claim(it.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if got.Assignee != "alice" || got.State != Allocated {
		t.Fatalf("self-claim = %+v", got)
	}
	if svc.Load("alice") != 1 || svc.Load("bob") != 0 {
		t.Errorf("loads = %d/%d", svc.Load("alice"), svc.Load("bob"))
	}
	checkConsistency(t, svc)
}

// TestPagination exercises the limit/offset variants against the
// merged per-stripe order.
func TestPagination(t *testing.T) {
	svc, _, nowPtr := newService(t, false)
	var want []string
	for i := 0; i < 10; i++ {
		it, err := svc.Create(Spec{
			InstanceID: "i", ElementID: fmt.Sprintf("e%d", i),
			Assignee: "alice", Priority: 9 - i,
		})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, it.ID) // descending priority = worklist order
		*nowPtr = nowPtr.Add(time.Second)
	}
	full := svc.WorklistPage("alice", 0, -1)
	if len(full) != 10 {
		t.Fatalf("full page = %d", len(full))
	}
	for i, it := range full {
		if it.ID != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, it.ID, want[i])
		}
	}
	page := svc.WorklistPage("alice", 3, 4)
	if len(page) != 4 || page[0].ID != want[3] || page[3].ID != want[6] {
		t.Errorf("page(3,4) = %v", page)
	}
	if got := svc.WorklistPage("alice", 8, 5); len(got) != 2 {
		t.Errorf("tail page = %d", len(got))
	}
	if got := svc.WorklistPage("alice", 20, 5); len(got) != 0 {
		t.Errorf("past-end page = %d", len(got))
	}
	if got := svc.ByStatePage(Allocated, 0, 3); len(got) != 3 || got[0].ID != want[0] {
		t.Errorf("ByStatePage = %v", got)
	}
	if got := svc.ByStatePage(Allocated, 0, 0); len(got) != 0 {
		t.Errorf("zero limit = %d", len(got))
	}
}

// TestAsyncNotify: the bounded async notifier delivers every
// transition, in per-item order, by Close.
func TestAsyncNotify(t *testing.T) {
	d := resource.NewDirectory()
	d.AddUser(&resource.User{ID: "alice", Roles: []string{"clerk"}})
	svc := NewService(Config{Directory: d, Stripes: 4, AsyncNotify: true, NotifyQueue: 8})
	var mu sync.Mutex
	got := map[string][]State{}
	svc.Subscribe(func(it *Item, from, to State) {
		// A deliberately slow listener: transitions must not block on
		// it beyond queue backpressure.
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		got[it.ID] = append(got[it.ID], to)
		mu.Unlock()
	})
	const n = 50
	for i := 0; i < n; i++ {
		it, err := svc.Create(Spec{InstanceID: "i", ElementID: "e", Role: "clerk"})
		if err != nil {
			t.Fatal(err)
		}
		svc.Claim(it.ID, "alice")
		svc.Start(it.ID, "alice")
		svc.Complete(it.ID, "alice", nil)
	}
	svc.Close()
	svc.Close() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("notified for %d items, want %d", len(got), n)
	}
	want := []State{Created, Offered, Allocated, Started, Completed}
	for id, seq := range got {
		if len(seq) != len(want) {
			t.Fatalf("item %s transitions = %v", id, seq)
		}
		for i := range want {
			if seq[i] != want[i] {
				t.Fatalf("item %s transitions = %v, want %v", id, seq, want)
			}
		}
	}
}

// TestStateRoundTrip covers ParseState against every name.
func TestStateRoundTrip(t *testing.T) {
	for s := Created; s <= Cancelled; s++ {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("ParseState(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Error("ParseState(bogus) should fail")
	}
}
