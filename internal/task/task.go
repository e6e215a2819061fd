// Package task implements the worklist subsystem of the BPMS: human
// work items with the standard lifecycle (created → offered →
// allocated → started → completed/failed/skipped), per-user worklists,
// delegation, deadlines, and pluggable allocation via the resource
// package. The engine creates an item when a user task is activated
// and resumes the process instance from the completion callback.
//
// The service is one store under one mutex, whatever the engine's
// shard count: an item map plus secondary indexes — per-user allocated
// and offered sets and a per-state set. The three set indexes are one
// type, ordered, kept in worklist order (priority desc, creation time,
// ID):
//
//   - a page query (WorklistPage, OfferedPage, ByStatePage,
//     UserStatePage) walks the first offset+limit entries of the index
//     and clones only the entries it returns — there is no per-query
//     sort and no item-map lookup; a filtered page (UserStatePage)
//     walks until offset+limit entries have matched;
//   - an index insert or remove is a binary search, O(log n), plus a
//     shift of the shorter side of the slice — nothing for an append
//     at the bottom, at most the page depth for a claim near the top,
//     and n/2 entries in the worst case (a priority insert into the
//     middle of a deep backlog).
//
// An item with a due time holds one entry on the timer service from
// creation until it closes. An entry that fires while its item is open
// puts the item in the overdue set and reports it once
// (Config.OnOverdue); nothing polls for deadlines.
//
// A user's load (allocated + started items), which allocation policies
// read, is the length of their worklist index.
package task

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/obs"
	"bpms/internal/resource"
	"bpms/internal/timer"
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

	CreatedAt time.Time `json:"createdAt"`
	// The lifecycle times are left out of the JSON while unset
	// (MarshalJSON).
	DueAt       time.Time `json:"dueAt"`
	AllocatedAt time.Time `json:"allocatedAt"`
	StartedAt   time.Time `json:"startedAt"`
	ClosedAt    time.Time `json:"closedAt"`
}

// MarshalJSON encodes the item with its unset lifecycle times left out.
// omitempty never omits a time.Time, a struct, and omitzero needs Go
// 1.24, so the times are written through pointers, nil when zero, that
// shadow the item's own fields.
func (it *Item) MarshalJSON() ([]byte, error) {
	type fields Item // Item without this method
	return json.Marshal(struct {
		*fields
		DueAt       *time.Time `json:"dueAt,omitempty"`
		AllocatedAt *time.Time `json:"allocatedAt,omitempty"`
		StartedAt   *time.Time `json:"startedAt,omitempty"`
		ClosedAt    *time.Time `json:"closedAt,omitempty"`
	}{(*fields)(it), unlessZero(&it.DueAt), unlessZero(&it.AllocatedAt), unlessZero(&it.StartedAt), unlessZero(&it.ClosedAt)})
}

// unlessZero returns t, or nil for the zero time.
func unlessZero(t *time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return t
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
// initial creation event. Listeners run under no lock, on the
// transitioning goroutine, before the operation returns.
type Listener func(item *Item, from, to State)

// notification is one listener call, collected under the store lock
// and delivered after it is released.
type notification struct {
	item     *Item
	from, to State
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
	// mu guards the item store and its indexes.
	mu      sync.Mutex
	items   map[string]*Item
	byUser  map[string]*ordered      // user -> items allocated/started
	offered map[string]*ordered      // user -> items offered
	byState [len(stateNames)]ordered // state -> items
	// deadlines holds the timer entry of each open item whose due time
	// has not passed; overdue the open items whose due time has passed,
	// with the time their entry fired.
	deadlines map[string]timer.ID
	overdue   map[string]time.Time
	nextID    atomic.Uint64

	directory *resource.Directory
	policy    resource.Policy
	autoAlloc bool
	now       func() time.Time

	// defaultSLA is the due time applied to items created without an
	// explicit deadline (0 = none).
	defaultSLA time.Duration
	timers     timer.Service
	onOverdue  func(OverdueItem)
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
	// DefaultSLA applies a due time of now+DefaultSLA to items created
	// without an explicit deadline (0 = items without a dueIn carry no
	// deadline).
	DefaultSLA time.Duration
	// Timers watches due times: each item with one schedules an entry
	// here (nil = due times are recorded but never fire). Schedule and
	// Cancel are called under the store lock; entries fire outside it.
	Timers timer.Service
	// OnOverdue is called once for each item whose due time passes
	// while it is open, outside the store lock (nil = none).
	OnOverdue func(OverdueItem)
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
	s := &Service{
		items:      map[string]*Item{},
		byUser:     map[string]*ordered{},
		offered:    map[string]*ordered{},
		deadlines:  map[string]timer.ID{},
		overdue:    map[string]time.Time{},
		directory:  cfg.Directory,
		policy:     cfg.Policy,
		autoAlloc:  cfg.AutoAllocate,
		now:        cfg.Now,
		defaultSLA: cfg.DefaultSLA,
		timers:     cfg.Timers,
		onOverdue:  cfg.OnOverdue,
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
	return s
}

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
	p := s.listeners.Load()
	if p == nil {
		return
	}
	for _, l := range *p {
		l(item, from, to)
	}
}

// Close releases the service. It is a no-op: listeners run on the
// transitioning goroutine, so nothing is left to drain.
func (s *Service) Close() {}

// Load returns the queue length (allocated + started) of a user.
func (s *Service) Load(userID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(userID)
}

// loadLocked is Load for a caller that holds the store lock: the
// allocation policy inside Create.
func (s *Service) loadLocked(userID string) int { return s.byUser[userID].len() }

// setStateLocked moves an item between per-state index sets.
func (s *Service) setStateLocked(it *Item, to State) {
	s.byState[it.State].remove(it)
	it.State = to
	s.byState[to].insert(it)
}

// Create registers a new work item and routes it: direct assignees are
// allocated immediately; role-routed items are offered to the role's
// members (or auto-allocated when configured); unrouted items stay
// Created for explicit allocation.
func (s *Service) Create(spec Spec) (*Item, error) {
	t0 := s.opCreate.Start()
	defer s.opCreate.Since(t0)
	id := fmt.Sprintf("wi-%d", s.nextID.Add(1))
	s.mu.Lock()
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
		if s.timers != nil {
			s.deadlines[id] = s.timers.Schedule(it.DueAt, func() { s.fireDue(id) })
		}
	}
	s.items[id] = it
	s.byState[Created].insert(it)

	events := []notification{{it.clone(), Created, Created}}
	switch {
	case spec.Assignee != "":
		s.allocateLocked(it, spec.Assignee, &events)
	case spec.Role != "":
		candidates := s.candidates(it)
		if s.autoAlloc {
			if u := s.policy.Pick(candidates, s.loadLocked); u != nil {
				s.allocateLocked(it, u.ID, &events)
			} else {
				s.offerLocked(it, candidates, &events)
			}
		} else {
			s.offerLocked(it, candidates, &events)
		}
	}
	s.mu.Unlock()
	for _, n := range events {
		s.notify(n.item, n.from, n.to)
	}
	// The last event carries the item as routing left it.
	return events[len(events)-1].item, nil
}

// candidates resolves an item's role members, capability-filtered. The
// directory has its own lock.
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

func (s *Service) offerLocked(it *Item, candidates []*resource.User, events *[]notification) {
	from := it.State
	s.setStateLocked(it, Offered)
	it.OfferedTo = it.OfferedTo[:0]
	for _, u := range candidates {
		it.OfferedTo = append(it.OfferedTo, u.ID)
		addTo(s.offered, u.ID, it)
	}
	*events = append(*events, notification{it.clone(), from, Offered})
}

func (s *Service) allocateLocked(it *Item, userID string, events *[]notification) {
	from := it.State
	s.clearOffersLocked(it)
	s.setStateLocked(it, Allocated)
	it.Assignee = userID
	it.AllocatedAt = s.now()
	addTo(s.byUser, userID, it)
	*events = append(*events, notification{it.clone(), from, Allocated})
}

func (s *Service) clearOffersLocked(it *Item) {
	for _, uid := range it.OfferedTo {
		dropFrom(s.offered, uid, it)
	}
	it.OfferedTo = nil
}

// clearDueLocked forgets a closing item's deadline: a pending timer
// entry is cancelled, an overdue mark dropped.
func (s *Service) clearDueLocked(id string) {
	if tid, ok := s.deadlines[id]; ok {
		s.timers.Cancel(tid)
		delete(s.deadlines, id)
	}
	delete(s.overdue, id)
}

// fireDue runs when an item's due-time entry fires. The entry fires
// once, so an item still open is marked overdue and reported exactly
// once; a closed one raced the firing and is left alone.
func (s *Service) fireDue(id string) {
	s.mu.Lock()
	it := s.items[id]
	delete(s.deadlines, id)
	if it.State.Terminal() {
		s.mu.Unlock()
		return
	}
	o := OverdueItem{Item: it.clone(), Detected: s.now()}
	s.overdue[id] = o.Detected
	s.mu.Unlock()
	if s.onOverdue != nil {
		s.onOverdue(o)
	}
}

// Get returns a copy of the work item.
func (s *Service) Get(id string) (*Item, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return it.clone(), nil
}

// transition applies a guarded state change under the store lock and
// then notifies listeners.
func (s *Service) transition(id string, to State, mutate func(*Item) error) (*Item, error) {
	var h *obs.Histogram
	if int(to) < len(s.opHist) {
		h = s.opHist[to]
	}
	t0 := h.Start()
	defer h.Since(t0)
	s.mu.Lock()
	it, ok := s.items[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	from := it.State
	if !canTransition(from, to) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s (item %s)", ErrBadTransition, from, to, id)
	}
	prevAssignee := it.Assignee
	if mutate != nil {
		if err := mutate(it); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	// Bookkeeping common to every transition. (The Allocated→Offered
	// reoffer path lives in Release, which owns its index moves and
	// the offer rebuild in one critical section.)
	switch to {
	case Allocated:
		s.clearOffersLocked(it)
		// A mutate hook may have changed the assignee: migrate the
		// per-user index with it so the item never sits on two queues.
		if prevAssignee != "" && prevAssignee != it.Assignee {
			dropFrom(s.byUser, prevAssignee, it)
		}
		if it.Assignee != "" {
			addTo(s.byUser, it.Assignee, it)
		}
		it.AllocatedAt = s.now()
	case Started:
		it.StartedAt = s.now()
	}
	if to.Terminal() {
		s.clearOffersLocked(it)
		s.clearDueLocked(id)
		if it.Assignee != "" {
			dropFrom(s.byUser, it.Assignee, it)
		}
		it.ClosedAt = s.now()
	}
	s.setStateLocked(it, to)
	snap := it.clone()
	s.mu.Unlock()
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
	s.mu.Lock()
	it, ok := s.items[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if it.State != Allocated && it.State != Started {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: delegate from %s", ErrBadTransition, it.State)
	}
	if it.Assignee != fromUser {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, fromUser, id)
	}
	from := it.State
	dropFrom(s.byUser, fromUser, it)
	it.Assignee = toUser
	addTo(s.byUser, toUser, it)
	// Delegation returns a started item to Allocated for the new owner.
	s.setStateLocked(it, Allocated)
	it.AllocatedAt = s.now()
	snap := it.clone()
	s.mu.Unlock()
	s.notify(snap, from, Allocated)
	return snap, nil
}

// Release returns an allocated item to the offered state so another
// role member can claim it. The worklist index, offered index, and
// state change apply in one critical section.
func (s *Service) Release(id, userID string) (*Item, error) {
	s.mu.Lock()
	it, ok := s.items[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !canTransition(it.State, Offered) {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s (item %s)", ErrBadTransition, it.State, Offered, id)
	}
	if it.Assignee != userID {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is not the assignee of %s", ErrNotAuthorized, userID, id)
	}
	dropFrom(s.byUser, it.Assignee, it)
	it.Assignee = ""
	var events []notification
	s.offerLocked(it, s.candidates(it), &events)
	snap := it.clone()
	s.mu.Unlock()
	for _, n := range events {
		s.notify(n.item, n.from, n.to)
	}
	return snap, nil
}

// page answers one paginated query from the index o returns (nil =
// empty), filtered by pred (nil = none).
func (s *Service) page(h *obs.Histogram, o func() *ordered, pred func(*Item) bool, offset, limit int) []*Item {
	t0 := h.Start()
	defer h.Since(t0)
	if offset < 0 {
		offset = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return o().page(offset, limit, pred)
}

// Worklist returns the items allocated to or started by user, sorted
// by priority (desc) then creation time.
func (s *Service) Worklist(userID string) []*Item {
	return s.WorklistPage(userID, 0, -1)
}

// WorklistPage is Worklist with pagination (limit < 0 = no limit).
func (s *Service) WorklistPage(userID string, offset, limit int) []*Item {
	return s.page(s.opPageWorklist, func() *ordered { return s.byUser[userID] }, nil, offset, limit)
}

// OfferedItems returns the items offered to user.
func (s *Service) OfferedItems(userID string) []*Item {
	return s.OfferedPage(userID, 0, -1)
}

// OfferedPage is OfferedItems with pagination (limit < 0 = no limit).
func (s *Service) OfferedPage(userID string, offset, limit int) []*Item {
	return s.page(s.opPageOffered, func() *ordered { return s.offered[userID] }, nil, offset, limit)
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
	return s.page(s.opPageState, func() *ordered { return &s.byState[state] }, nil, offset, limit)
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
		return s.page(s.opPageWorklist, func() *ordered { return s.byUser[userID] },
			func(it *Item) bool { return it.State == state }, offset, limit)
	}
	if int(state) >= len(stateNames) {
		return nil
	}
	return s.page(s.opPageState, func() *ordered { return &s.byState[state] },
		func(it *Item) bool { return it.Assignee == userID }, offset, limit)
}

// OverdueItem is an open work item whose due time has passed.
type OverdueItem struct {
	Item *Item
	// Detected is when the item's due-time entry fired.
	Detected time.Time
}

// Overdue returns the open items whose due time has passed, in the
// order their entries fired (worklist order among equal times).
func (s *Service) Overdue() []OverdueItem {
	var out []OverdueItem
	s.mu.Lock()
	for id, at := range s.overdue {
		out = append(out, OverdueItem{Item: s.items[id].clone(), Detected: at})
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Detected.Equal(out[b].Detected) {
			return out[a].Detected.Before(out[b].Detected)
		}
		return itemLess(out[a].Item, out[b].Item)
	})
	return out
}

// Stats reports the worklist's shape and load for monitoring.
type Stats struct {
	// Items is the total number of items tracked.
	Items int `json:"items"`
	// Open is the number of non-terminal items.
	Open int `json:"open"`
	// ByState counts items per lifecycle state.
	ByState map[string]int `json:"byState"`
	// Users is the number of users with a non-empty queue.
	Users int `json:"users"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	out := Stats{ByState: map[string]int{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Items = len(s.items)
	out.Users = len(s.byUser)
	for state := range s.byState {
		n := s.byState[state].len()
		if n == 0 {
			continue
		}
		out.ByState[State(state).String()] = n
		if !State(state).Terminal() {
			out.Open += n
		}
	}
	return out
}
