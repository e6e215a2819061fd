package resource

import (
	"fmt"
	"sync"
	"testing"
)

// TestDirectoryRegistrationOrder: UsersInRole lists role members in
// registration order, whatever their IDs, and re-adding a user moves
// them to the end.
func TestDirectoryRegistrationOrder(t *testing.T) {
	d := NewDirectory()
	ids := []string{"zoe", "alice", "mallory", "bob", "carol", "dave", "erin", "frank"}
	for _, id := range ids {
		d.AddUser(&User{ID: id, Roles: []string{"clerk"}})
	}
	got := d.UsersInRole("clerk")
	if len(got) != len(ids) {
		t.Fatalf("%d users in role, want %d", len(got), len(ids))
	}
	for i, u := range got {
		if u.ID != ids[i] {
			t.Fatalf("role order[%d] = %s, want %s (registration order)", i, u.ID, ids[i])
		}
	}
	// Re-registering alice moves her to the end.
	d.AddUser(&User{ID: "alice", Roles: []string{"clerk", "manager"}})
	got = d.UsersInRole("clerk")
	if got[len(got)-1].ID != "alice" {
		t.Fatalf("re-added user not last: %v", ids)
	}
	if n := len(got); n != len(ids) {
		t.Fatalf("re-add duplicated: %d members", n)
	}
	if mgr := d.UsersInRole("manager"); len(mgr) != 1 || mgr[0].ID != "alice" {
		t.Fatalf("manager role = %v", mgr)
	}
	if d.Count() != len(ids) {
		t.Fatalf("Count = %d, want %d", d.Count(), len(ids))
	}
}

// TestDirectoryConcurrent mirrors the task.Service index-consistency
// pattern: concurrent registrations, lookups, and role queries race
// (run with -race), and the final directory holds exactly the expected
// membership.
func TestDirectoryConcurrent(t *testing.T) {
	d := NewDirectory()
	const writers, per = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("user-%d-%03d", g, i)
				d.AddUser(&User{ID: id, Roles: []string{fmt.Sprintf("role-%d", i%3)}, Capabilities: []string{"x"}})
				if u := d.UserByID(id); u == nil {
					t.Errorf("just-added %s not found", id)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Readers must never see torn state: every member listed
			// for a role actually holds it.
			for r := 0; r < 3; r++ {
				role := fmt.Sprintf("role-%d", r)
				for _, u := range d.UsersInRole(role) {
					if !u.HasRole(role) {
						t.Errorf("%s listed in %s without holding it", u.ID, role)
						return
					}
				}
			}
			_ = d.AllUsers()
			_ = d.Count()
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	if got := d.Count(); got != writers*per {
		t.Fatalf("Count = %d, want %d", got, writers*per)
	}
	if got := len(d.AllUsers()); got != writers*per {
		t.Fatalf("AllUsers = %d, want %d", got, writers*per)
	}
	members := 0
	for r := 0; r < 3; r++ {
		members += len(d.UsersInRole(fmt.Sprintf("role-%d", r)))
	}
	if members != writers*per {
		t.Fatalf("role members sum to %d, want %d", members, writers*per)
	}
}
