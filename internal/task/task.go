// Package task implements the worklist subsystem of the BPMS: human
// work items with the standard lifecycle (created → offered →
// allocated → started → completed/failed/skipped), per-user worklists,
// delegation, deadlines, and pluggable allocation via the resource
// package. The engine creates an item when a user task is activated
// and resumes the process instance from the completion callback.
//
// The service is a striped concurrent store: items are partitioned
// across N stripes by FNV-1a on the item ID (fnv1a.Sum32, the hash the
// shard router and the history stripes use), each stripe guarded by
// its own mutex and carrying its own secondary indexes — per-user
// allocated and offered sets, a per-state set, and a due-time
// min-heap — so claims and completions on different items proceed in
// parallel. The three set indexes are one type, ordered, kept in
// worklist order (priority desc, creation time, ID):
//
//   - a page query (WorklistPage, OfferedPage, ByStatePage,
//     UserStatePage) walks the first offset+limit entries of each
//     stripe's index and clones only the entries it returns — there is
//     no per-query sort and no item-map lookup; a filtered page
//     (UserStatePage) walks until offset+limit entries have matched;
//   - an index insert or remove is a binary search, O(log n), plus a
//     shift of the shorter side of the slice — nothing for an append
//     at the bottom, at most the page depth for a claim near the top,
//     and n/2 entries in the worst case (a priority insert into the
//     middle of a deep backlog);
//   - Overdue pops its due-time heap, O(overdue · log pending).
//
// Per-user load counters live outside the item stripes, so allocation
// policies (resource.ShortestQueuePolicy) read them without touching
// any stripe lock.
package task

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/fnv1a"
	"bpms/internal/obs"
	"bpms/internal/resource"
)

// State is a work-item lifecycle state.
type State int

// Work-item states.
const (
	Created State = iota
	Offered
	Allocated
	Started
	Completed
	Failed
	Skipped
	Cancelled
)

var stateNames = [...]string{
	"created", "offered", "allocated", "started",
	"completed", "failed", "skipped", "cancelled",
}

// String returns the lower-case state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ParseState resolves a lower-case state name.
func ParseState(name string) (State, error) {
	for i, n := range stateNames {
		if n == name {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("task: unknown state %q", name)
}

// quotedStateNames holds each state name as a JSON string, so encoding
// an item allocates nothing for its state.
var quotedStateNames = func() (q [len(stateNames)][]byte) {
	for i, n := range stateNames {
		q[i] = []byte(`"` + n + `"`)
	}
	return q
}()

// MarshalJSON encodes the state as its name.
func (s State) MarshalJSON() ([]byte, error) {
	if int(s) < len(quotedStateNames) {
		return quotedStateNames[s], nil
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a state name.
func (s *State) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	st, err := ParseState(name)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// Terminal reports whether no further transitions are allowed.
func (s State) Terminal() bool {
	switch s {
	case Completed, Failed, Skipped, Cancelled:
		return true
	}
	return false
}

// legal transitions of the work-item state machine.
var transitions = map[State][]State{
	Created:   {Offered, Allocated, Cancelled, Skipped},
	Offered:   {Allocated, Cancelled, Skipped},
	Allocated: {Started, Offered, Cancelled, Skipped},
	Started:   {Completed, Failed, Allocated, Cancelled},
}

func canTransition(from, to State) bool {
	for _, s := range transitions[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Errors returned by the service.
var (
	ErrNotFound      = errors.New("task: work item not found")
	ErrBadTransition = errors.New("task: illegal lifecycle transition")
	ErrNotAuthorized = errors.New("task: user not authorized for item")
)

// Item is one human work item.
type Item struct {
	ID         string         `json:"id"`
	ProcessID  string         `json:"processId"`
	InstanceID string         `json:"instanceId"`
	ElementID  string         `json:"elementId"`
	Name       string         `json:"name,omitempty"`
	State      State          `json:"state"`
	Role       string         `json:"role,omitempty"`
	Capability string         `json:"capability,omitempty"`
	Assignee   string         `json:"assignee,omitempty"` // current owner
	OfferedTo  []string       `json:"offeredTo,omitempty"`
	Priority   int            `json:"priority,omitempty"`
	Data       map[string]any `json:"data,omitempty"`    // input payload
	Outcome    map[string]any `json:"outcome,omitempty"` // completion payload
	Reason     string         `json:"reason,omitempty"`  // failure/skip reason

	CreatedAt   time.Time `json:"createdAt"`
	DueAt       time.Time `json:"dueAt,omitempty"`
	AllocatedAt time.Time `json:"allocatedAt,omitempty"`
	StartedAt   time.Time `json:"startedAt,omitempty"`
	ClosedAt    time.Time `json:"closedAt,omitempty"`
}

func (it *Item) clone() *Item {
	cp := new(Item)
	it.copyTo(cp)
	return cp
}

// copyTo makes dst a copy of it that shares no mutable state with it.
func (it *Item) copyTo(dst *Item) {
	*dst = *it
	dst.OfferedTo = append([]string(nil), it.OfferedTo...)
}

// Spec describes a work item to create.
type Spec struct {
	ProcessID  string
	InstanceID string
	ElementID  string
	Name       string
	Role       string
	Assignee   string // direct allocation when set
	Capability string
	Priority   int
	Due        time.Duration // 0 = no deadline
	Data       map[string]any
}

// Listener observes lifecycle transitions. from==to==Created for the
// initial creation event. Listeners run under no lock: on the
// transitioning goroutine by default, or on the notifier goroutine
// with Config.AsyncNotify.
type Listener func(item *Item, from, to State)

// notification is one queued listener dispatch.
type notification struct {
	item     *Item
	from, to State
}

// dueEntry is one deadline-index record. Entries are removed lazily:
// a surfaced entry whose item has closed is dropped instead of
// re-pushed (mirroring timer.HeapService's lazy cancellation).
type dueEntry struct {
	at time.Time
	id string
}

type dueHeap []dueEntry

func (h dueHeap) Len() int { return len(h) }
func (h dueHeap) Less(a, b int) bool {
	if !h[a].at.Equal(h[b].at) {
		return h[a].at.Before(h[b].at)
	}
	return h[a].id < h[b].id
}
func (h dueHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *dueHeap) Push(x any)   { *h = append(*h, x.(dueEntry)) }
func (h *dueHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// stripe is one lock-striped partition of the item store with its own
// secondary indexes. All fields are guarded by mu.
type stripe struct {
	mu      sync.Mutex
	items   map[string]*Item
	byUser  map[string]*ordered      // user -> items allocated/started
	offered map[string]*ordered      // user -> items offered
	byState [len(stateNames)]ordered // state -> items
	due     dueHeap                  // open items with deadlines
}

func newStripe() *stripe {
	return &stripe{
		items:   map[string]*Item{},
		byUser:  map[string]*ordered{},
		offered: map[string]*ordered{},
	}
}

// addTo inserts an item into a per-user index, reporting whether it
// was absent; dropFrom is its inverse. A user's index exists only
// while it is non-empty.
func addTo(index map[string]*ordered, userID string, it *Item) bool {
	o := index[userID]
	if o == nil {
		o = &ordered{}
		index[userID] = o
	}
	return o.insert(it)
}

func dropFrom(index map[string]*ordered, userID string, it *Item) bool {
	o := index[userID]
	if !o.remove(it) {
		return false
	}
	if o.len() == 0 {
		delete(index, userID)
	}
	return true
}

// Service is the worklist manager.
type Service struct {
	stripes []*stripe
	nextID  atomic.Uint64

	directory *resource.Directory
	policy    resource.Policy
	autoAlloc bool
	now       func() time.Time

	// defaultSLA is the due time applied to items created without an
	// explicit deadline, so the audit sweeper's due-heap walk covers
	// them (0 = none).
	defaultSLA time.Duration
	// opHist holds one pre-resolved latency histogram per operation
	// (index = target State; opCreate covers Create, the opPage* three
	// the page queries by the index they read). Nil entries when
	// uninstrumented.
	opHist         [len(stateNames)]*obs.Histogram
	opCreate       *obs.Histogram
	opPageWorklist *obs.Histogram
	opPageOffered  *obs.Histogram
	opPageState    *obs.Histogram

	// listeners is copy-on-write: Subscribe (rare) copies under subMu,
	// notify (hot) loads the pointer with no lock and no allocation.
	subMu     sync.Mutex
	listeners atomic.Pointer[[]Listener]

	// loads counts allocated+started items per user across all
	// stripes. It has its own (leaf) lock so Load — and through it the
	// allocation policies — never touches an item-stripe lock.
	loadMu sync.RWMutex
	loads  map[string]int

	notifyCh   chan notification
	notifyDone chan struct{}
	closed     atomic.Bool
}

// Config configures a Service.
type Config struct {
	// Directory resolves roles to users (required for role routing).
	Directory *resource.Directory
	// Policy picks a user when AutoAllocate is set (default
	// shortest-queue).
	Policy resource.Policy
	// AutoAllocate pushes role-routed items straight to a user chosen
	// by Policy instead of offering them for pull-style claiming.
	AutoAllocate bool
	// Now supplies timestamps (default time.Now).
	Now func() time.Time
	// Stripes partitions items across this many independently locked
	// stripes (default 1). Queries merge per-stripe results, so any
	// stripe count answers identically; more stripes admit more
	// concurrent claims/completions on multi-core hosts.
	Stripes int
	// AsyncNotify dispatches lifecycle listeners from a dedicated
	// notifier goroutine through a bounded queue, so transitions never
	// block on a slow subscriber (a full queue applies backpressure —
	// events are never dropped). Callers owning an async service must
	// Close it. Default synchronous: listeners run on the
	// transitioning goroutine before the operation returns.
	AsyncNotify bool
	// NotifyQueue bounds the async notifier queue (default 1024).
	NotifyQueue int
	// DefaultSLA applies a due time of now+DefaultSLA to items created
	// without an explicit deadline (0 = items without a dueIn carry no
	// deadline). Because it lands on the due-time heap, the SLA audit
	// sweep stays O(overdue).
	DefaultSLA time.Duration
	// Metrics instruments operation latency (zero value =
	// uninstrumented).
	Metrics obs.TaskMetrics
}

// NewService creates a worklist service.
func NewService(cfg Config) *Service {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Policy == nil {
		cfg.Policy = resource.ShortestQueuePolicy{}
	}
	if cfg.Directory == nil {
		cfg.Directory = resource.NewDirectory()
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 1
	}
	s := &Service{
		stripes:    make([]*stripe, cfg.Stripes),
		directory:  cfg.Directory,
		policy:     cfg.Policy,
		autoAlloc:  cfg.AutoAllocate,
		now:        cfg.Now,
		defaultSLA: cfg.DefaultSLA,
		loads:      map[string]int{},
	}
	if cfg.Metrics.Op != nil {
		s.opCreate = cfg.Metrics.Op("create")
		s.opPageWorklist = cfg.Metrics.Op("page_worklist")
		s.opPageOffered = cfg.Metrics.Op("page_offered")
		s.opPageState = cfg.Metrics.Op("page_state")
		for i, name := range stateNames {
			s.opHist[i] = cfg.Metrics.Op(name)
		}
	}
	for i := range s.stripes {
		s.stripes[i] = newStripe()
	}
	if cfg.AsyncNotify {
		if cfg.NotifyQueue <= 0 {
			cfg.NotifyQueue = 1024
		}
		s.notifyCh = make(chan notification, cfg.NotifyQueue)
		s.notifyDone = make(chan struct{})
		go s.dispatch()
	}
	return s
}

// stripeFor hashes an item ID to its stripe.
func (s *Service) stripeFor(id string) *stripe {
	return s.stripes[fnv1a.Sum32(id)%uint32(len(s.stripes))]
}

// Stripes returns the stripe count.
func (s *Service) Stripes() int { return len(s.stripes) }

// Subscribe registers a lifecycle listener (copy-on-write: concurrent
// transitions keep dispatching the previous set unblocked).
func (s *Service) Subscribe(l Listener) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	var old []Listener
	if p := s.listeners.Load(); p != nil {
		old = *p
	}
	next := make([]Listener, len(old)+1)
	copy(next, old)
	next[len(old)] = l
	s.listeners.Store(&next)
}

func (s *Service) notify(item *Item, from, to State) {
	if s.notifyCh != nil {
		s.notifyCh <- notification{item, from, to}
		return
	}
	s.deliver(item, from, to)
}

func (s *Service) deliver(item *Item, from, to State) {
	p := s.listeners.Load()
	if p == nil {
		return
	}
	for _, l := range *p {
		l(item, from, to)
	}
}

// dispatch drains the async notifier queue.
func (s *Service) dispatch() {
	for n := range s.notifyCh {
		s.deliver(n.item, n.from, n.to)
	}
	close(s.notifyDone)
}

// Close drains and stops the async notifier: every notification
// enqueued before the call is delivered on return. A no-op for
// synchronous services; callers must not issue operations after (or
// concurrently with) Close.
func (s *Service) Close() {
	if s.notifyCh == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.notifyCh)
	<-s.notifyDone
}

// NotifyBacklog reports the queued async notifications (0 when
// synchronous).
func (s *Service) NotifyBacklog() int { return len(s.notifyCh) }

// Load returns the queue length (allocated + started) of a user. It
// reads the dedicated load index — no item-stripe lock is taken, so
// allocation policies may call it from inside Create.
func (s *Service) Load(userID string) int {
	s.loadMu.RLock()
	defer s.loadMu.RUnlock()
	return s.loads[userID]
}

func (s *Service) addLoad(userID string, delta int) {
	s.loadMu.Lock()
	n := s.loads[userID] + delta
	if n <= 0 {
		delete(s.loads, userID)
	} else {
		s.loads[userID] = n
	}
	s.loadMu.Unlock()
}

// userAddLocked inserts an item into a user's allocated/started index
// and bumps the load counter on first insertion.
func (s *Service) userAddLocked(st *stripe, userID string, it *Item) {
	if addTo(st.byUser, userID, it) {
		s.addLoad(userID, 1)
	}
}

// userRemoveLocked is the inverse of userAddLocked.
func (s *Service) userRemoveLocked(st *stripe, userID string, it *Item) {
	if dropFrom(st.byUser, userID, it) {
		s.addLoad(userID, -1)
	}
}

// setStateLocked moves an item between per-state index sets.
func (st *stripe) setStateLocked(it *Item, to State) {
	st.byState[it.State].remove(it)
	it.State = to
	st.byState[to].insert(it)
}

// Create registers a new work item and routes it: direct assignees are
// allocated immediately; role-routed items are offered to the role's
// members (or auto-allocated when configured); unrouted items stay
// Created for explicit allocation.
func (s *Service) Create(spec Spec) (*Item, error) {
	t0 := s.opCreate.Start()
	defer s.opCreate.Since(t0)
	id := fmt.Sprintf("wi-%d", s.nextID.Add(1))
	st := s.stripeFor(id)
	st.mu.Lock()
	now := s.now()
	it := &Item{
		ID:         id,
		ProcessID:  spec.ProcessID,
		InstanceID: spec.InstanceID,
		ElementID:  spec.ElementID,
		Name:       spec.Name,
		State:      Created,
		Role:       spec.Role,
		Capability: spec.Capability,
		Priority:   spec.Priority,
		Data:       spec.Data,
		CreatedAt:  now,
	}
	due := spec.Due
	if due <= 0 && s.defaultSLA > 0 {
		due = s.defaultSLA
	}
	if due > 0 {
		it.DueAt = now.Add(due)
		heap.Push(&st.due, dueEntry{at: it.DueAt, id: id})
	}
	st.items[id] = it
	st.byState[Created].insert(it)

	events := []notification{{it.clone(), Created, Created}}
	switch {
	case spec.Assignee != "":
		s.allocateLocked(st, it, spec.Assignee, &events)
	case spec.Role != "":
		candidates := s.candidates(it)
		if s.autoAlloc {
			// Load reads the dedicated counters, not the stripe locks,
			// so the policy runs safely inside this critical section.
			if u := s.policy.Pick(candidates, s.Load); u != nil {
				s.allocateLocked(st, it, u.ID, &events)
			} else {
				s.offerLocked(st, it, candidates, &events)
			}
		} else {
			s.offerLocked(st, it, candidates, &events)
		}
	}
	st.mu.Unlock()
	for _, n := range events {
		s.notify(n.item, n.from, n.to)
	}
	// The last event carries the item as routing left it.
	return events[len(events)-1].item, nil
}

// candidates resolves an item's role members, capability-filtered. The
// directory has its own lock; no stripe lock is required.
func (s *Service) candidates(it *Item) []*resource.User {
	users := s.directory.UsersInRole(it.Role)
	if it.Capability == "" {
		return users
	}
	var out []*resource.User
	for _, u := range users {
		if u.HasCapability(it.Capability) {
			out = append(out, u)
		}
	}
	return out
}

func (s *Service) offerLocked(st *stripe, it *Item, candidates []*resource.User, events *[]notification) {
	from := it.State
	st.setStateLocked(it, Offered)
	it.OfferedTo = it.OfferedTo[:0]
	for _, u := range candidates {
		it.OfferedTo = append(it.OfferedTo, u.ID)
		addTo(st.offered, u.ID, it)
	}
	*events = append(*events, notification{it.clone(), from, Offered})
}

func (s *Service) allocateLocked(st *stripe, it *Item, userID string, events *[]notification) {
	from := it.State
	clearOffersLocked(st, it)
	st.setStateLocked(it, Allocated)
	it.Assignee = userID
	it.AllocatedAt = s.now()
	s.userAddLocked(st, userID, it)
	*events = append(*events, notification{it.clone(), from, Allocated})
}

func clearOffersLocked(st *stripe, it *Item) {
	for _, uid := range it.OfferedTo {
		dropFrom(st.offered, uid, it)
	}
	it.OfferedTo = nil
}

// Get returns a copy of the work item.
func (s *Service) Get(id string) (*Item, error) {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	it, ok := st.items[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return it.clone(), nil
}

// transition applies a guarded state change under the item's stripe
// lock and then notifies listeners.
func (s *Service) transition(id string, to State, mutate func(*Item) error) (*Item, error) {
	var h *obs.Histogram
	if int(to) < len(s.opHist) {
		h = s.opHist[to]
	}
	t0 := h.Start()
	defer h.Since(t0)
	st := s.stripeFor(id)
	st.mu.Lock()
	it, ok := st.items[id]
	if !ok {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	from := it.State
	if !canTransition(from, to) {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s (item %s)", ErrBadTransition, from, to, id)
	}
	prevAssignee := it.Assignee
	if mutate != nil {
		if err := mutate(it); err != nil {
			st.mu.Unlock()
			return nil, err
		}
	}
	// Bookkeeping common to every transition. (The Allocated→Offered
	// reoffer path lives in Release, which owns its index moves and
	// the offer rebuild in one critical section.)
	switch to {
	case Allocated:
		clearOffersLocked(st, it)
		// A mutate hook may have changed the assignee: migrate the
		// per-user index with it so the item never sits on two queues.
		if prevAssignee != "" && prevAssignee != it.Assignee {
			s.userRemoveLocked(st, prevAssignee, it)
		}
		if it.Assignee != "" {
			s.userAddLocked(st, it.Assignee, it)
		}
		it.AllocatedAt = s.now()
	case Started:
		it.StartedAt = s.now()
	}
	if to.Terminal() {
		clearOffersLocked(st, it)
		if it.Assignee != "" {
			s.userRemoveLocked(st, it.Assignee, it)
		}
		it.ClosedAt = s.now()
	}
	st.setStateLocked(it, to)
	snap := it.clone()
	st.mu.Unlock()
	s.notify(snap, from, to)
	return snap, nil
}

// Claim allocates an offered (or created) item to user. Offered items
// may only be claimed by a user they were offered to, and a started
// item only by its own assignee (returning it to Allocated) — no user
// can seize another's in-progress work through Claim.
func (s *Service) Claim(id, userID string) (*Item, error) {
	return s.transition(id, Allocated, func(it *Item) error {
		switch it.State {
		case Offered:
			if !slices.Contains(it.OfferedTo, userID) {
				return fmt.Errorf("%w: %s not offered %s", ErrNotAuthorized, userID, id)
			}
		case Started:
			if it.Assignee != userID {
				return fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, userID, id)
			}
		}
		it.Assignee = userID
		return nil
	})
}

// Start begins work on an allocated item; only the assignee may start.
func (s *Service) Start(id, userID string) (*Item, error) {
	return s.transition(id, Started, func(it *Item) error {
		if it.Assignee != userID {
			return fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, userID, id)
		}
		return nil
	})
}

// Complete finishes a started item with an outcome payload.
func (s *Service) Complete(id, userID string, outcome map[string]any) (*Item, error) {
	return s.transition(id, Completed, func(it *Item) error {
		if it.Assignee != userID {
			return fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, userID, id)
		}
		it.Outcome = outcome
		return nil
	})
}

// Fail marks a started item as failed with a reason.
func (s *Service) Fail(id, userID, reason string) (*Item, error) {
	return s.transition(id, Failed, func(it *Item) error {
		if it.Assignee != userID {
			return fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, userID, id)
		}
		it.Reason = reason
		return nil
	})
}

// Skip cancels a not-yet-started item, recording a reason.
func (s *Service) Skip(id, reason string) (*Item, error) {
	return s.transition(id, Skipped, func(it *Item) error {
		it.Reason = reason
		return nil
	})
}

// Cancel terminates an item in any non-terminal state (used when the
// owning process instance is cancelled or a boundary event interrupts).
func (s *Service) Cancel(id, reason string) (*Item, error) {
	return s.transition(id, Cancelled, func(it *Item) error {
		it.Reason = reason
		return nil
	})
}

// Delegate moves an allocated item from its assignee to another user.
func (s *Service) Delegate(id, fromUser, toUser string) (*Item, error) {
	st := s.stripeFor(id)
	st.mu.Lock()
	it, ok := st.items[id]
	if !ok {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if it.State != Allocated && it.State != Started {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: delegate from %s", ErrBadTransition, it.State)
	}
	if it.Assignee != fromUser {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, fromUser, id)
	}
	from := it.State
	s.userRemoveLocked(st, fromUser, it)
	it.Assignee = toUser
	s.userAddLocked(st, toUser, it)
	// Delegation returns a started item to Allocated for the new owner.
	st.setStateLocked(it, Allocated)
	it.AllocatedAt = s.now()
	snap := it.clone()
	st.mu.Unlock()
	s.notify(snap, from, Allocated)
	return snap, nil
}

// Release returns an allocated item to the offered state so another
// role member can claim it. The worklist index, offered index, and
// state change apply in one critical section.
func (s *Service) Release(id, userID string) (*Item, error) {
	st := s.stripeFor(id)
	st.mu.Lock()
	it, ok := st.items[id]
	if !ok {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !canTransition(it.State, Offered) {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s (item %s)", ErrBadTransition, it.State, Offered, id)
	}
	if it.Assignee != userID {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, userID, id)
	}
	s.userRemoveLocked(st, it.Assignee, it)
	it.Assignee = ""
	var events []notification
	s.offerLocked(st, it, s.candidates(it), &events)
	snap := it.clone()
	st.mu.Unlock()
	for _, n := range events {
		s.notify(n.item, n.from, n.to)
	}
	return snap, nil
}

// page answers one paginated query: pick selects the index to read on
// each stripe, pred (nil = none) filters its entries. A single stripe
// is read in place; several are each asked for their first
// offset+limit matches — any one of them may hold the whole answer —
// and merged.
func (s *Service) page(h *obs.Histogram, pick func(*stripe) *ordered, pred func(*Item) bool, offset, limit int) []*Item {
	t0 := h.Start()
	defer h.Since(t0)
	if offset < 0 {
		offset = 0
	}
	if len(s.stripes) == 1 {
		st := s.stripes[0]
		st.mu.Lock()
		defer st.mu.Unlock()
		return pick(st).page(offset, limit, pred)
	}
	first := -1
	if limit >= 0 {
		first = offset + limit
	}
	lists := make([][]*Item, 0, len(s.stripes))
	for _, st := range s.stripes {
		st.mu.Lock()
		l := pick(st).page(0, first, pred)
		st.mu.Unlock()
		if len(l) > 0 {
			lists = append(lists, l)
		}
	}
	return mergeSorted(lists, offset, limit)
}

// Worklist returns the items allocated to or started by user, sorted
// by priority (desc) then creation time.
func (s *Service) Worklist(userID string) []*Item {
	return s.WorklistPage(userID, 0, -1)
}

// WorklistPage is Worklist with pagination (limit < 0 = no limit).
func (s *Service) WorklistPage(userID string, offset, limit int) []*Item {
	return s.page(s.opPageWorklist, func(st *stripe) *ordered { return st.byUser[userID] }, nil, offset, limit)
}

// OfferedItems returns the items offered to user.
func (s *Service) OfferedItems(userID string) []*Item {
	return s.OfferedPage(userID, 0, -1)
}

// OfferedPage is OfferedItems with pagination (limit < 0 = no limit).
func (s *Service) OfferedPage(userID string, offset, limit int) []*Item {
	return s.page(s.opPageOffered, func(st *stripe) *ordered { return st.offered[userID] }, nil, offset, limit)
}

// ByState returns copies of all items in the given state, read from
// the per-state index (O(answer), not O(items ever created)).
func (s *Service) ByState(state State) []*Item {
	return s.ByStatePage(state, 0, -1)
}

// ByStatePage is ByState with pagination (limit < 0 = no limit).
func (s *Service) ByStatePage(state State, offset, limit int) []*Item {
	if int(state) >= len(stateNames) {
		return nil
	}
	return s.page(s.opPageState, func(st *stripe) *ordered { return &st.byState[state] }, nil, offset, limit)
}

// UserStatePage returns one page of the items in the given state that
// belong to user: offered to them, on their worklist (allocated,
// started), or — created and closed items sit on no user's queue —
// carrying them as assignee (for a closed item, whoever closed it).
// The last two walk the user's worklist, or the state's index, only
// until offset+limit entries have matched.
func (s *Service) UserStatePage(userID string, state State, offset, limit int) []*Item {
	switch state {
	case Offered:
		return s.OfferedPage(userID, offset, limit)
	case Allocated, Started:
		return s.page(s.opPageWorklist, func(st *stripe) *ordered { return st.byUser[userID] },
			func(it *Item) bool { return it.State == state }, offset, limit)
	}
	if int(state) >= len(stateNames) {
		return nil
	}
	return s.page(s.opPageState, func(st *stripe) *ordered { return &st.byState[state] },
		func(it *Item) bool { return it.Assignee == userID }, offset, limit)
}

// Overdue returns open items whose deadline has passed at the given
// time. Each stripe consults its due-time min-heap: entries are
// popped while due, stale ones (closed items) dropped, live ones
// collected and re-pushed — O(overdue · log pending) per call instead
// of a scan over every item ever created.
func (s *Service) Overdue(now time.Time) []*Item {
	var out []*Item
	for _, st := range s.stripes {
		st.mu.Lock()
		out = append(out, st.overdueLocked(now)...)
		st.mu.Unlock()
	}
	sortItems(out)
	return out
}

func (st *stripe) overdueLocked(now time.Time) []*Item {
	var out []*Item
	var keep []dueEntry
	for len(st.due) > 0 {
		top := st.due[0]
		if !top.at.Before(now) {
			break
		}
		heap.Pop(&st.due)
		it, ok := st.items[top.id]
		if !ok || it.State.Terminal() || !it.DueAt.Equal(top.at) {
			continue // stale: closed (lazy removal) or superseded entry
		}
		out = append(out, it.clone())
		keep = append(keep, top)
	}
	for _, e := range keep {
		heap.Push(&st.due, e)
	}
	return out
}

func sortItems(items []*Item) {
	sort.Slice(items, func(a, b int) bool { return itemLess(items[a], items[b]) })
}

// mergeSorted k-way-merges per-stripe pre-sorted slices, stopping at
// offset+limit and slicing off the first offset items (limit < 0 =
// everything). The stripe count is small, so a linear min scan beats
// a heap here.
func mergeSorted(lists [][]*Item, offset, limit int) []*Item {
	if offset < 0 {
		offset = 0
	}
	if len(lists) == 1 {
		l := lists[0]
		if offset >= len(l) {
			return nil
		}
		l = l[offset:]
		if limit >= 0 && len(l) > limit {
			l = l[:limit]
		}
		return l
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 || offset >= total {
		return nil
	}
	want := total
	if limit >= 0 && offset+limit < want {
		want = offset + limit
	}
	idx := make([]int, len(lists))
	out := make([]*Item, 0, want)
	for len(out) < want {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 || itemLess(l[idx[i]], lists[best][idx[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	if offset >= len(out) {
		return nil
	}
	return out[offset:]
}

// StripeStat reports one stripe's load.
type StripeStat struct {
	// Items is the number of items (any state) on the stripe.
	Items int `json:"items"`
	// Open is the number of non-terminal items on the stripe.
	Open int `json:"open"`
	// Due is the stripe's deadline-index size (may include entries for
	// closed items pending lazy removal).
	Due int `json:"due"`
}

// Stats reports the worklist's shape and load for monitoring.
type Stats struct {
	// Stripes is the stripe count.
	Stripes int `json:"stripes"`
	// Items is the total number of items tracked.
	Items int `json:"items"`
	// Open is the number of non-terminal items.
	Open int `json:"open"`
	// ByState counts items per lifecycle state.
	ByState map[string]int `json:"byState"`
	// Users is the number of users with a non-empty queue.
	Users int `json:"users"`
	// NotifyBacklog is the queued async notifications (0 when
	// synchronous).
	NotifyBacklog int `json:"notifyBacklog"`
	// PerStripe is the per-stripe breakdown.
	PerStripe []StripeStat `json:"perStripe"`
}

// Stats snapshots the service. Stripes are read one at a time, so a
// monitoring poll never blocks the whole worklist.
func (s *Service) Stats() Stats {
	out := Stats{
		Stripes:       len(s.stripes),
		ByState:       map[string]int{},
		NotifyBacklog: s.NotifyBacklog(),
		PerStripe:     make([]StripeStat, len(s.stripes)),
	}
	for i, st := range s.stripes {
		st.mu.Lock()
		ss := StripeStat{Items: len(st.items), Due: len(st.due)}
		for state := range st.byState {
			n := st.byState[state].len()
			if n == 0 {
				continue
			}
			out.ByState[State(state).String()] += n
			if !State(state).Terminal() {
				ss.Open += n
			}
		}
		st.mu.Unlock()
		out.Items += ss.Items
		out.Open += ss.Open
		out.PerStripe[i] = ss
	}
	s.loadMu.RLock()
	out.Users = len(s.loads)
	s.loadMu.RUnlock()
	return out
}
