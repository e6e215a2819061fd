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
	"sync/atomic"

	"bpms/internal/fnv1a"
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

// Directory is the thread-safe registry of users and roles. Users are
// striped by FNV-1a of their ID — fnv1a.Sum32, the hash the shard
// router, history pipeline, and worklist use for placement — so lookup
// traffic from concurrent work allocation (every offered task resolves
// its role's candidate set here) spreads over independent locks
// instead of serializing on one directory-wide mutex.
type Directory struct {
	stripes []*dirStripe
	seq     atomic.Uint64 // global registration order across stripes
}

type dirStripe struct {
	mu     sync.RWMutex
	users  map[string]*dirEntry
	byRole map[string][]*dirEntry
}

// dirEntry pins a user's global registration sequence so role listings
// merged across stripes reproduce directory-wide registration order.
type dirEntry struct {
	user *User
	seq  uint64
}

// DefaultDirectoryStripes is the stripe count NewDirectory uses.
const DefaultDirectoryStripes = 8

// NewDirectory returns an empty directory with the default striping.
func NewDirectory() *Directory {
	return NewDirectoryStriped(DefaultDirectoryStripes)
}

// NewDirectoryStriped returns an empty directory with the given number
// of lock stripes (values < 1 fall back to the default).
func NewDirectoryStriped(stripes int) *Directory {
	if stripes < 1 {
		stripes = DefaultDirectoryStripes
	}
	d := &Directory{stripes: make([]*dirStripe, stripes)}
	for i := range d.stripes {
		d.stripes[i] = &dirStripe{users: map[string]*dirEntry{}, byRole: map[string][]*dirEntry{}}
	}
	return d
}

// Stripes returns the number of lock stripes.
func (d *Directory) Stripes() int { return len(d.stripes) }

// stripeOf hashes a user ID to its stripe.
func (d *Directory) stripeOf(id string) *dirStripe {
	return d.stripes[fnv1a.Sum32(id)%uint32(len(d.stripes))]
}

// AddUser registers a user (replacing any same-ID user; replacement
// moves the user to the end of the registration order, as appending
// to the role lists always did).
func (d *Directory) AddUser(u *User) {
	s := d.stripeOf(u.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.users[u.ID]; ok {
		for _, r := range old.user.Roles {
			s.byRole[r] = removeEntry(s.byRole[r], u.ID)
		}
	}
	e := &dirEntry{user: u.clone(), seq: d.seq.Add(1)}
	s.users[u.ID] = e
	for _, r := range e.user.Roles {
		s.byRole[r] = append(s.byRole[r], e)
	}
}

func removeEntry(s []*dirEntry, id string) []*dirEntry {
	out := s[:0]
	for _, e := range s {
		if e.user.ID != id {
			out = append(out, e)
		}
	}
	return out
}

// UserByID returns a copy of the user, or nil.
func (d *Directory) UserByID(id string) *User {
	s := d.stripeOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.users[id]
	if !ok {
		return nil
	}
	return e.user.clone()
}

// UsersInRole returns copies of the users holding role, in
// registration order (merged across stripes by global sequence).
func (d *Directory) UsersInRole(role string) []*User {
	type cand struct {
		u   *User
		seq uint64
	}
	var found []cand
	for _, s := range d.stripes {
		s.mu.RLock()
		for _, e := range s.byRole[role] {
			found = append(found, cand{u: e.user.clone(), seq: e.seq})
		}
		s.mu.RUnlock()
	}
	sort.Slice(found, func(a, b int) bool { return found[a].seq < found[b].seq })
	out := make([]*User, 0, len(found))
	for _, c := range found {
		out = append(out, c.u)
	}
	return out
}

// AllUsers returns copies of all users sorted by ID.
func (d *Directory) AllUsers() []*User {
	var out []*User
	for _, s := range d.stripes {
		s.mu.RLock()
		for _, e := range s.users {
			out = append(out, e.user.clone())
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Count returns the number of registered users.
func (d *Directory) Count() int {
	n := 0
	for _, s := range d.stripes {
		s.mu.RLock()
		n += len(s.users)
		s.mu.RUnlock()
	}
	return n
}

// LoadFunc reports the current queue length (allocated + started work
// items) of a user; allocation policies minimise or ignore it. The
// worklist service backs it with dedicated cross-stripe load counters,
// so policies may call it from inside worklist operations (it never
// takes an item-stripe lock).
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
