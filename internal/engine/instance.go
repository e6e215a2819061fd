package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/timer"
)

// Status is an instance lifecycle state.
type Status int

// Instance statuses.
const (
	StatusActive Status = iota
	StatusCompleted
	StatusCancelled
	StatusFaulted
)

var statusNames = [...]string{"active", "completed", "cancelled", "faulted"}

// String returns the lower-case status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// ParseStatus resolves a lower-case status name (the API's state
// filter).
func ParseStatus(name string) (Status, error) {
	for i, n := range statusNames {
		if n == name {
			return Status(i), nil
		}
	}
	return 0, fmt.Errorf("engine: unknown status %q", name)
}

// WaitKind records why a token is parked.
type WaitKind int

// Wait kinds.
const (
	WaitNone      WaitKind = iota
	WaitUserTask           // user/manual task work item open
	WaitMessage            // receive task / message catch event
	WaitTimer              // timer catch event
	WaitEventGate          // event-based gateway race
	WaitJoin               // AND/OR join holding arrived tokens
	WaitMulti              // multi-instance controller
	WaitSubProc            // sub-process / call-activity scope open
)

var waitNames = [...]string{"", "user-task", "message", "timer", "event-gateway", "join", "multi-instance", "sub-process"}

// String returns the wait-kind name.
func (w WaitKind) String() string {
	if int(w) < len(waitNames) {
		return waitNames[w]
	}
	return fmt.Sprintf("wait(%d)", int(w))
}

// Token is one locus of control in an instance. Element positions are
// paths: "approve" at the root, "sp/inner" inside sub-process sp —
// the prefix is the sub-process element's own path. A state record
// holds it in binary (state.go); the JSON tags spell it as data dirs
// before format 4 held it, for Upgrade to read.
type Token struct {
	ID   uint64   `json:"id"`
	Elem string   `json:"elem"` // element path
	Wait WaitKind `json:"wait,omitempty"`

	// Wait-state details (persisted; volatile handles rebuilt on
	// recovery).
	WorkItemID string    `json:"workItemId,omitempty"`
	TimerAt    time.Time `json:"timerAt,omitempty"`
	Message    string    `json:"message,omitempty"`
	CorrKey    string    `json:"corrKey,omitempty"`

	// Event-gateway race: the catch-event successors armed for this
	// token.
	Race []raceArm `json:"race,omitempty"`

	// Boundary events armed while an activity is busy.
	Boundaries []boundaryArm `json:"boundaries,omitempty"`

	// Multi-instance controller state.
	MI *miState `json:"mi,omitempty"`

	// Sub-process scope: number of live child tokens.
	ScopeLive int `json:"scopeLive,omitempty"`

	// volatile (not persisted)
	timerID timer.ID
}

// raceArm is one armed successor of an event-based gateway.
type raceArm struct {
	Elem    string    `json:"elem"` // catch element path
	Message string    `json:"message,omitempty"`
	CorrKey string    `json:"corrKey,omitempty"`
	TimerAt time.Time `json:"timerAt,omitempty"`

	timerID timer.ID
}

// boundaryArm is one armed boundary event on a busy activity.
type boundaryArm struct {
	Elem      string             `json:"elem"` // boundary element path
	Kind      model.BoundaryKind `json:"kind"`
	Interrupt bool               `json:"interrupt"`
	Message   string             `json:"message,omitempty"`
	CorrKey   string             `json:"corrKey,omitempty"`
	TimerAt   time.Time          `json:"timerAt,omitempty"`
	ErrorCode string             `json:"errorCode,omitempty"`
	Fired     bool               `json:"fired,omitempty"` // non-interrupting: at most once

	timerID timer.ID
}

// miState tracks a multi-instance activity controller token.
type miState struct {
	Total    int          `json:"total"`
	Done     int          `json:"done"`
	NextIdx  int          `json:"nextIdx"` // sequential: next item index
	Parallel bool         `json:"parallel"`
	Items    []expr.Value `json:"items,omitempty"`
	ElemVar  string       `json:"elemVar"`
	Stopped  bool         `json:"stopped"` // completion condition hit
	// OpenItems are the open work-item IDs; ItemIdx maps each to its
	// collection index (work items are re-issued on recovery).
	OpenItems []string       `json:"openItems,omitempty"`
	ItemIdx   map[string]int `json:"itemIdx,omitempty"`
}

// Instance is one case of a process definition. All fields are guarded
// by mu; the engine locks at most one instance at a time.
type Instance struct {
	mu sync.Mutex

	ID        string
	ProcessID string
	def       *model.Process
	Status    Status
	Vars      map[string]expr.Value
	Tokens    map[uint64]*Token
	// Joins holds the queued arrival-token IDs per join element path
	// and incoming flow ID.
	Joins map[string]map[string][]uint64

	StartedAt time.Time
	EndedAt   time.Time

	dirty  bool     // needs persistence after the current step
	outbox []outMsg // messages thrown during the current step
}

func newInstance(id string, def *model.Process, vars map[string]expr.Value) *Instance {
	if vars == nil {
		vars = map[string]expr.Value{}
	}
	return &Instance{
		ID:        id,
		ProcessID: def.ID,
		def:       def,
		Status:    StatusActive,
		Vars:      vars,
		Tokens:    map[uint64]*Token{},
		Joins:     map[string]map[string][]uint64{},
	}
}

func (inst *Instance) newToken(e *Engine, elem string) *Token {
	t := &Token{ID: e.tokSeq.Add(1), Elem: elem}
	inst.Tokens[t.ID] = t
	return t
}

func (inst *Instance) dropToken(t *Token) {
	delete(inst.Tokens, t.ID)
}

// scopeOf returns the path prefix of an element path ("" at root;
// "sp/" for "sp/inner").
func scopeOf(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[:i+1]
	}
	return ""
}

// lastSegment returns the element ID within its scope.
func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// resolve maps an element path to its process scope and element. The
// scope process is the definition body containing the element.
func (e *Engine) resolve(inst *Instance, path string) (*model.Process, *model.Element, error) {
	proc := inst.def
	segs := strings.Split(path, "/")
	for i, seg := range segs {
		el := proc.ElementByID(seg)
		if el == nil {
			return nil, nil, fmt.Errorf("engine: element %q not found (path %q)", seg, path)
		}
		if i == len(segs)-1 {
			return proc, el, nil
		}
		switch el.Kind {
		case model.KindSubProcess:
			proc = el.SubProcess
		case model.KindCallActivity:
			e.mu.RLock()
			called := e.definitions[el.CalledProcess]
			e.mu.RUnlock()
			if called == nil {
				return nil, nil, fmt.Errorf("%w: %s (called by %s)", ErrUnknownProcess, el.CalledProcess, seg)
			}
			proc = called
		default:
			return nil, nil, fmt.Errorf("engine: path %q descends into non-scope %q", path, seg)
		}
	}
	return proc, nil, fmt.Errorf("engine: empty path")
}

// InstanceView is an immutable snapshot of an instance for callers.
type InstanceView struct {
	ID        string
	ProcessID string
	Status    Status
	Vars      map[string]expr.Value
	// ActiveTokens lists parked token positions with their wait kinds.
	ActiveTokens []TokenView
	StartedAt    time.Time
	EndedAt      time.Time
}

// TokenView describes one parked token.
type TokenView struct {
	ID         uint64
	Element    string
	Wait       WaitKind
	WorkItemID string
}

func (e *Engine) viewSnapshot(inst *Instance) *InstanceView {
	v := &InstanceView{
		ID:        inst.ID,
		ProcessID: inst.ProcessID,
		Status:    inst.Status,
		Vars:      make(map[string]expr.Value, len(inst.Vars)),
		StartedAt: inst.StartedAt,
		EndedAt:   inst.EndedAt,
	}
	for k, val := range inst.Vars {
		v.Vars[k] = val
	}
	for _, t := range inst.Tokens {
		v.ActiveTokens = append(v.ActiveTokens, TokenView{
			ID: t.ID, Element: t.Elem, Wait: t.Wait, WorkItemID: t.WorkItemID,
		})
	}
	sort.Slice(v.ActiveTokens, func(a, b int) bool { return v.ActiveTokens[a].ID < v.ActiveTokens[b].ID })
	return v
}

// lenientEnv exposes instance variables to expressions, yielding null
// for unbound names (the usual BPM expression-language convention) and
// layering optional extra bindings (multi-instance element variables).
type lenientEnv struct {
	vars  map[string]expr.Value
	extra map[string]expr.Value
}

// Lookup implements expr.Env.
func (l lenientEnv) Lookup(name string) (expr.Value, bool) {
	if l.extra != nil {
		if v, ok := l.extra[name]; ok {
			return v, true
		}
	}
	if v, ok := l.vars[name]; ok {
		return v, true
	}
	return expr.Null, true // lenient: unbound reads as null
}
