// Package resource implements the organisational model of the BPMS —
// users, roles, and capabilities — and the work-allocation policies
// that route human tasks to resources (direct, random, round-robin,
// shortest-queue, capability-filtered). Policies are the subject of
// experiment F2, which compares their waiting-time behaviour under
// simulated load.
package resource

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// User is one human resource.
type User struct {
	ID           string   `json:"id"`
	Name         string   `json:"name,omitempty"`
	Roles        []string `json:"roles,omitempty"`
	Capabilities []string `json:"capabilities,omitempty"`
}

// HasRole reports whether the user is a member of role.
func (u *User) HasRole(role string) bool {
	for _, r := range u.Roles {
		if r == role {
			return true
		}
	}
	return false
}

// HasCapability reports whether the user offers the capability.
func (u *User) HasCapability(c string) bool {
	for _, x := range u.Capabilities {
		if x == c {
			return true
		}
	}
	return false
}

func (u *User) clone() *User {
	cp := *u
	cp.Roles = append([]string(nil), u.Roles...)
	cp.Capabilities = append([]string(nil), u.Capabilities...)
	return &cp
}

// Directory is the thread-safe registry of users and roles. Reads
// (every task creation resolves its role's candidates here) share one
// read lock; writes happen at boot and on user registration.
type Directory struct {
	mu     sync.RWMutex
	users  map[string]*User
	byRole map[string][]*User // role -> members in registration order
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{users: map[string]*User{}, byRole: map[string][]*User{}}
}

// AddUser registers a user (replacing any same-ID user; replacement
// moves the user to the end of the registration order).
func (d *Directory) AddUser(u *User) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.users[u.ID]; ok {
		for _, r := range old.Roles {
			d.byRole[r] = removeUser(d.byRole[r], u.ID)
		}
	}
	cp := u.clone()
	d.users[u.ID] = cp
	for _, r := range cp.Roles {
		d.byRole[r] = append(d.byRole[r], cp)
	}
}

func removeUser(s []*User, id string) []*User {
	out := s[:0]
	for _, u := range s {
		if u.ID != id {
			out = append(out, u)
		}
	}
	return out
}

// UserByID returns a copy of the user, or nil.
func (d *Directory) UserByID(id string) *User {
	d.mu.RLock()
	defer d.mu.RUnlock()
	u, ok := d.users[id]
	if !ok {
		return nil
	}
	return u.clone()
}

// UsersInRole returns copies of the users holding role, in
// registration order.
func (d *Directory) UsersInRole(role string) []*User {
	d.mu.RLock()
	defer d.mu.RUnlock()
	members := d.byRole[role]
	out := make([]*User, len(members))
	for i, u := range members {
		out[i] = u.clone()
	}
	return out
}

// AllUsers returns copies of all users sorted by ID.
func (d *Directory) AllUsers() []*User {
	d.mu.RLock()
	out := make([]*User, 0, len(d.users))
	for _, u := range d.users {
		out = append(out, u.clone())
	}
	d.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Count returns the number of registered users.
func (d *Directory) Count() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.users)
}

// LoadFunc reports the current queue length (allocated + started work
// items) of a user; allocation policies minimise or ignore it. The
// worklist service calls Pick under its store lock and passes a LoadFunc
// that reads its indexes without taking that lock again.
type LoadFunc func(userID string) int

// Policy selects one user from a candidate set.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick chooses a candidate; nil when candidates is empty.
	Pick(candidates []*User, load LoadFunc) *User
}

// RandomPolicy picks uniformly at random (seeded for reproducibility).
type RandomPolicy struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandomPolicy returns a random policy with the given seed.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return NewRandomPolicyFrom(rand.New(rand.NewSource(seed)))
}

// NewRandomPolicyFrom returns a random policy drawing from an injected
// source. The policy serializes access to the source internally, so it
// stays race-free when several shards route work through it — but
// callers wanting reproducibility across runs should not share one
// source between unrelated consumers.
func NewRandomPolicyFrom(r *rand.Rand) *RandomPolicy {
	return &RandomPolicy{rng: r}
}

// Name implements Policy.
func (p *RandomPolicy) Name() string { return "random" }

// Pick implements Policy.
func (p *RandomPolicy) Pick(candidates []*User, _ LoadFunc) *User {
	if len(candidates) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return candidates[p.rng.Intn(len(candidates))]
}

// RoundRobinPolicy cycles through candidates in stable (ID) order,
// remembering its position per distinct candidate set signature.
type RoundRobinPolicy struct {
	mu   sync.Mutex
	next map[string]int
}

// NewRoundRobinPolicy returns a fresh round-robin policy.
func NewRoundRobinPolicy() *RoundRobinPolicy {
	return &RoundRobinPolicy{next: map[string]int{}}
}

// Name implements Policy.
func (p *RoundRobinPolicy) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobinPolicy) Pick(candidates []*User, _ LoadFunc) *User {
	if len(candidates) == 0 {
		return nil
	}
	sorted := append([]*User(nil), candidates...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })
	sig := ""
	for _, u := range sorted {
		sig += u.ID + "|"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.next[sig] % len(sorted)
	p.next[sig] = i + 1
	return sorted[i]
}

// ShortestQueuePolicy picks the candidate with the fewest queued work
// items, breaking ties by user ID for determinism.
type ShortestQueuePolicy struct{}

// Name implements Policy.
func (ShortestQueuePolicy) Name() string { return "shortest-queue" }

// Pick implements Policy.
func (ShortestQueuePolicy) Pick(candidates []*User, load LoadFunc) *User {
	if len(candidates) == 0 {
		return nil
	}
	best := candidates[0]
	bestLoad := load(best.ID)
	for _, u := range candidates[1:] {
		l := load(u.ID)
		if l < bestLoad || (l == bestLoad && u.ID < best.ID) {
			best, bestLoad = u, l
		}
	}
	return best
}

// CapabilityPolicy filters candidates by a required capability and
// delegates the final choice to an inner policy.
type CapabilityPolicy struct {
	// Capability is the required capability; empty matches everyone.
	Capability string
	// Inner breaks ties among capable candidates (default
	// ShortestQueuePolicy).
	Inner Policy
}

// Name implements Policy.
func (p CapabilityPolicy) Name() string {
	return fmt.Sprintf("capability(%s)", p.Capability)
}

// Pick implements Policy.
func (p CapabilityPolicy) Pick(candidates []*User, load LoadFunc) *User {
	var capable []*User
	for _, u := range candidates {
		if p.Capability == "" || u.HasCapability(p.Capability) {
			capable = append(capable, u)
		}
	}
	inner := p.Inner
	if inner == nil {
		inner = ShortestQueuePolicy{}
	}
	return inner.Pick(capable, load)
}
