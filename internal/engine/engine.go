// Package engine implements the enactment service of the BPMS — the
// workflow engine. It executes process definitions from internal/model
// with token semantics: instances hold tokens that advance through the
// graph synchronously until they park at a wait state (user task,
// message, timer, event gateway, or an unsatisfied join) and are
// resumed by task completions, correlated messages, or fired timers.
//
// Supported semantics: all task types; exclusive, parallel, inclusive
// (with full non-local OR-join semantics) and event-based gateways;
// embedded sub-processes and call activities; interrupting and
// non-interrupting boundary events (timer, error, message); terminate
// end events; sequential and parallel multi-instance activities with
// completion conditions; per-instance data with expression-guarded
// flows; incidents; and message correlation with buffering.
//
// A parked token's fields say what it waits for (wait.go). armToken
// registers the timers and message subscriptions they describe, wake is
// the one entry through which a fired timer or a delivered message
// resumes the token, and disarmToken revokes them when it moves on.
//
// Persistence is write-behind state journaling: after every quiescent
// step the affected instance's state is appended to the journal.
// Recovery, when the shard router builds an engine on an existing
// journal (New), restores the latest state of every instance, issues
// open work items again and arms every parked token with armToken, as
// its first park did. Snapshots bound replay cost (experiments T4/F5).
//
// Finished cases are archived as their final record: once a completed,
// cancelled or faulted instance's state is journaled, it leaves the live
// map and the engine keeps only that record's bytes, decoding them when
// a read asks for more than identity and status. Snapshots copy those
// bytes and recovery archives them undecoded, so memory, snapshot and
// restart cost follow the live cases, not every case ever run.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/obs"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// Errors returned by the engine API.
var (
	ErrUnknownProcess  = errors.New("engine: unknown process definition")
	ErrUnknownInstance = errors.New("engine: unknown instance")
	ErrUnknownHandler  = errors.New("engine: unknown service-task handler")
	ErrNotActive       = errors.New("engine: instance is not active")
)

// Handler executes a service task. It receives a read-only snapshot of
// the case data and returns variable updates (or an error, which
// triggers retries, error boundary events, or an incident).
type Handler func(tc TaskContext) (map[string]expr.Value, error)

// TaskContext carries the information a Handler may use.
type TaskContext struct {
	InstanceID string
	ProcessID  string
	ElementID  string
	// Vars is a snapshot of case data; mutations are ignored (return
	// updates instead).
	Vars map[string]expr.Value
}

// Config assembles an Engine.
type Config struct {
	// Journal persists instance state (default: a journal that numbers
	// records and keeps none, since only recovery reads them). Every
	// transition waits for its durability acknowledgement
	// (Journal.AppendDurable): once StartInstanceID, a task completion
	// or a message delivery returns, its state survives a crash.
	Journal storage.Journal
	// Snapshots, when set, enables snapshot-based recovery compaction.
	Snapshots *storage.SnapshotStore
	// SnapshotEvery writes a snapshot after this many journal appends
	// (0 = never).
	SnapshotEvery int
	// SnapshotInterval writes a snapshot on this wall-clock cadence
	// whenever the journal has advanced past the last one, so a shard
	// trickling writes still gets its replay bounded (0 = never).
	SnapshotInterval time.Duration
	// Tasks is the worklist service for user/manual tasks (default: a
	// fresh service with an empty directory).
	Tasks *task.Service
	// Timers schedules deadlines (default: a timing wheel; tests pass
	// a wheel driven by a virtual clock).
	Timers timer.Service
	// Clock supplies time (default RealClock).
	Clock timer.Clock
	// Publisher publishes the messages send tasks and throw events
	// emit (required; the shard router supplies it, so a message thrown
	// on one shard reaches waiting instances on every shard).
	Publisher func(name, key string, vars map[string]expr.Value) (int, bool, error)
	// BufferedMessages looks up an early message when a token parks at
	// a receive point (required; the shard router supplies it, reading
	// the buffer of the shard the correlation key hashes to).
	BufferedMessages func(name, key string) (map[string]expr.Value, bool)
	// Metrics instruments this shard's StartInstance and transition
	// latency (zero value = uninstrumented).
	Metrics obs.EngineMetrics
	// OnDegrade, when set, is called exactly once if the engine
	// fail-stops on a storage I/O error (see ErrDegraded). The core
	// wires logging and the bpms_shard_degraded gauge here.
	OnDegrade func(reason string)
}

// Engine is the enactment service. All exported methods are safe for
// concurrent use.
type Engine struct {
	mu          sync.RWMutex
	definitions map[string]*model.Process
	instances   map[string]*Instance // live cases
	archive     map[string]archived  // finished cases (see retire)
	handlers    map[string]Handler

	journal       storage.Journal
	snapshots     *storage.SnapshotStore
	snapshotEvery uint64
	snapInterval  time.Duration

	tasks  *task.Service
	timers timer.Service
	clock  timer.Clock
	hist   *history.Store

	subs          *subscriptions
	publisher     func(name, key string, vars map[string]expr.Value) (int, bool, error)
	buffered      func(name, key string) (map[string]expr.Value, bool)
	upstreamCache sync.Map // upstreamKey -> map[string]bool
	metrics       obs.EngineMetrics

	tokSeq          atomic.Uint64
	closing         atomic.Bool
	snapMu          sync.Mutex // one Snapshot at a time (see Snapshot)
	lastSnapIndex   atomic.Uint64
	reissueFailures atomic.Uint64 // recovered work items not re-issued

	// Boot recovery: the live cases New loaded for Start to arm, and
	// how long each step took (see Recovery).
	toArm             []*Instance
	loadTook, armTook time.Duration

	// The snapshotter goroutine (see snapshotter); snapStop is nil until
	// Start, and after it when the engine has no snapshot store or no
	// automatic trigger.
	appends  atomic.Uint64 // journal appends, counted for SnapshotEvery
	snapReq  chan struct{} // 1-slot: a round is owed
	snapStop chan struct{} // closed by Close
	snapDone chan struct{} // closed when the snapshotter exits

	degraded  atomic.Bool
	degrade   degradeState
	onDegrade func(reason string)

	// afterSnapshotIndex, set only by tests, runs between a snapshot's
	// two steps (see snapshotContents): it lets a test start cases at
	// the one point where the order of those steps matters.
	afterSnapshotIndex func()
	// retireHook, set only by tests, is handed each retirement instead
	// of it running at once, so a test can read a finished case both
	// before and after it leaves the live map.
	retireHook func(retire func())
}

// New creates an engine and loads its state: the latest snapshot (when
// a store is set) plus the journal suffix. Loading reads only this
// shard's files and records no audit event, so it may run while the
// history store is still opening. The engine serves nothing until Start
// arms what it loaded. Only the shard router builds engines: it
// supplies the Publisher and BufferedMessages hooks, and New refuses a
// config without them.
func New(cfg Config) (*Engine, error) {
	if cfg.Publisher == nil || cfg.BufferedMessages == nil {
		return nil, errors.New("engine: config needs Publisher and BufferedMessages (the shard router supplies them)")
	}
	if cfg.Journal == nil {
		cfg.Journal = storage.NewDiscardJournal()
	}
	if cfg.Clock == nil {
		cfg.Clock = timer.RealClock{}
	}
	if cfg.Timers == nil {
		cfg.Timers = timer.NewWheelService(10*time.Millisecond, 512)
	}
	if cfg.Tasks == nil {
		cfg.Tasks = task.NewService(task.Config{})
	}
	e := &Engine{
		definitions:   map[string]*model.Process{},
		instances:     map[string]*Instance{},
		archive:       map[string]archived{},
		handlers:      map[string]Handler{},
		journal:       cfg.Journal,
		snapshots:     cfg.Snapshots,
		snapshotEvery: uint64(max(cfg.SnapshotEvery, 0)),
		snapInterval:  cfg.SnapshotInterval,
		tasks:         cfg.Tasks,
		timers:        cfg.Timers,
		clock:         cfg.Clock,
		subs:          newSubscriptions(),
		publisher:     cfg.Publisher,
		buffered:      cfg.BufferedMessages,
		metrics:       cfg.Metrics,
		onDegrade:     cfg.OnDegrade,
	}
	e.tasks.Subscribe(e.onTaskTransition)
	if cfg.Journal.LastIndex() > 0 || cfg.Snapshots != nil {
		begin := time.Now()
		live, err := e.load()
		if err != nil {
			return nil, err
		}
		e.toArm = live
		e.loadTook = time.Since(begin)
	}
	return e, nil
}

// Start completes boot: hist (nil for none) becomes the audit sink, the
// loaded live cases are armed (arm; re-issued work items record
// task.created in hist), and the snapshotter starts. The router calls
// it once, after every shard has loaded and the store has opened.
func (e *Engine) Start(hist *history.Store) {
	e.hist = hist
	if e.toArm != nil {
		begin := time.Now()
		e.arm(e.toArm)
		e.toArm = nil
		e.armTook = time.Since(begin)
	}
	if e.snapshots != nil && (e.snapshotEvery > 0 || e.snapInterval > 0) {
		e.snapReq = make(chan struct{}, 1)
		e.snapStop = make(chan struct{})
		e.snapDone = make(chan struct{})
		go e.snapshotter(e.snapInterval)
	}
}

// Recovery reports how long boot took to load the snapshot and journal
// (New) and to arm the live cases (Start); both zero when the engine
// started fresh. Neither includes waiting for the history store.
func (e *Engine) Recovery() (load, arm time.Duration) {
	return e.loadTook, e.armTook
}

// RegisterHandler binds a service-task handler name to its function.
// Handlers must be registered before instances using them execute;
// they are not persisted.
func (e *Engine) RegisterHandler(name string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[name] = h
}

func (e *Engine) handler(name string) (Handler, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h, ok := e.handlers[name]
	return h, ok
}

// Deploy validates and registers a process definition (and persists
// the deployment). Every expression in the definition — flow
// conditions, output mappings, multi-instance collection/completion
// conditions, correlation keys — is compiled once here; runtime
// evaluation reuses the retained programs.
func (e *Engine) Deploy(p *model.Process) error {
	return e.deploy(p, true)
}

// DeployReplica deploys without emitting the deployment audit event.
// The shard router fans a deployment out to every shard with it, so
// the shared history records the deployment exactly once while each
// shard still persists the definition in its own journal.
func (e *Engine) DeployReplica(p *model.Process) error {
	return e.deploy(p, false)
}

func (e *Engine) deploy(p *model.Process, audit bool) error {
	if err := e.checkWritable(); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	cp := p.Clone()
	cp.Index()
	if err := cp.Compile(); err != nil {
		return err
	}
	e.mu.Lock()
	e.definitions[cp.ID] = cp
	e.mu.Unlock()
	if audit {
		e.audit(&history.Event{Type: history.ProcessDeployed, Time: e.clock.Now(), ProcessID: cp.ID})
	}
	return e.persistDeploy(cp)
}

// Definition returns a deployed definition (shared; do not mutate).
func (e *Engine) Definition(id string) (*model.Process, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, ok := e.definitions[id]
	return p, ok
}

// Definitions returns the IDs of all deployed definitions, sorted.
func (e *Engine) Definitions() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.definitions))
	for id := range e.definitions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Tasks exposes the worklist service.
func (e *Engine) Tasks() *task.Service { return e.tasks }

// Now returns the engine clock's current time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// StartInstanceID creates and advances a new instance of a deployed
// process under a caller-assigned ID, with the given initial variables
// (Go values are converted to expression values). The shard router
// allocates IDs from one sequence and routes each to the shard its
// hash selects, so IDs stay unique and routable across shards. The ID
// must not collide with an existing instance.
func (e *Engine) StartInstanceID(processID, id string, vars map[string]any) (*InstanceView, error) {
	if id == "" {
		return nil, fmt.Errorf("engine: empty instance id")
	}
	if err := e.checkWritable(); err != nil {
		return nil, err
	}
	t0 := e.metrics.Start.Start()
	defer e.metrics.Start.Since(t0)
	e.mu.RLock()
	def, ok := e.definitions[processID]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProcess, processID)
	}
	converted := make(map[string]expr.Value, len(vars))
	for k, v := range vars {
		ev, err := expr.FromGo(v)
		if err != nil {
			return nil, fmt.Errorf("engine: variable %q: %w", k, err)
		}
		converted[k] = ev
	}
	inst := newInstance(id, def, converted)
	e.mu.Lock()
	_, live := e.instances[id]
	if _, finished := e.archive[id]; live || finished {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: duplicate instance id %q", id)
	}
	e.instances[id] = inst
	e.mu.Unlock()

	e.audit(&history.Event{Type: history.InstanceStarted, Time: e.clock.Now(),
		ProcessID: processID, InstanceID: id})

	inst.mu.Lock()
	starts := def.StartEvents()
	toks := make([]*Token, 0, len(starts))
	for _, s := range starts {
		toks = append(toks, inst.newToken(e, s.ID))
	}
	for _, tok := range toks {
		if _, live := inst.Tokens[tok.ID]; !live {
			continue
		}
		e.advance(inst, tok)
	}
	perr := e.finishChecks(inst)
	v := e.viewSnapshot(inst)
	e.releaseStep(inst)
	if perr != nil {
		// The instance ran, but its state never reached (durable)
		// storage: a crash would lose it, so the caller must not treat
		// this start as acknowledged.
		return nil, perr
	}
	return v, nil
}

// Has reports whether an instance with the given ID is registered on
// this engine, live or archived (the shard router uses it to locate an
// instance's owner shard).
func (e *Engine) Has(id string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, live := e.instances[id]
	_, finished := e.archive[id]
	return live || finished
}

// InstanceCount returns the number of instances on this engine.
func (e *Engine) InstanceCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.instances) + len(e.archive)
}

// ArchivedCount returns how many of this engine's instances are
// finished cases kept as their final record.
func (e *Engine) ArchivedCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.archive)
}

// ReissueFailures counts the work items recovery could not re-issue
// for parked user-task tokens; their instances stay parked.
func (e *Engine) ReissueFailures() uint64 { return e.reissueFailures.Load() }

// lockCase returns case id locked; the caller unlocks it. A finished
// case comes back as a private copy rebuilt from its final record, the
// way recovery rebuilds it; its status is terminal, so write paths
// refuse it with ErrNotActive.
func (e *Engine) lockCase(id string) (*Instance, error) {
	e.mu.RLock()
	inst, live := e.instances[id]
	a, finished := e.archive[id]
	def := e.definitions[a.processID]
	e.mu.RUnlock()
	switch {
	case live:
	case finished:
		st, err := parseState(a.state)
		if err != nil {
			return nil, fmt.Errorf("engine: decode archived instance %s: %w", id, err)
		}
		inst = restoreInstance(st, def)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, id)
	}
	inst.mu.Lock()
	return inst, nil
}

// Instance returns a point-in-time view of an instance.
func (e *Engine) Instance(id string) (*InstanceView, error) {
	inst, err := e.lockCase(id)
	if err != nil {
		return nil, err
	}
	defer inst.mu.Unlock()
	return e.viewSnapshot(inst), nil
}

// Instances returns the IDs of all instances, sorted.
func (e *Engine) Instances() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.instances)+len(e.archive))
	for id := range e.instances {
		out = append(out, id)
	}
	for id := range e.archive {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// InstanceSummary is one row of a listing: identity and status only,
// no variables or tokens, so listing 100k instances stays cheap.
type InstanceSummary struct {
	ID        string
	ProcessID string
	Status    Status
}

// Summaries returns a summary row per instance, sorted by ID. Each
// live instance is locked only long enough to read its status, so the
// listing does not serialise against running steps; archived rows are
// read without decoding.
func (e *Engine) Summaries() []InstanceSummary {
	e.mu.RLock()
	insts := make([]*Instance, 0, len(e.instances))
	for _, inst := range e.instances {
		insts = append(insts, inst)
	}
	out := make([]InstanceSummary, 0, len(insts)+len(e.archive))
	for id, a := range e.archive {
		out = append(out, InstanceSummary{ID: id, ProcessID: a.processID, Status: a.status})
	}
	e.mu.RUnlock()
	for _, inst := range insts {
		inst.mu.Lock()
		out = append(out, InstanceSummary{ID: inst.ID, ProcessID: inst.ProcessID, Status: inst.Status})
		inst.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelInstance cancels an active instance: all tokens are dropped,
// open work items cancelled, timers disarmed, and subscriptions
// removed.
func (e *Engine) CancelInstance(id, reason string) error {
	if err := e.checkWritable(); err != nil {
		return err
	}
	t0 := e.metrics.Transition.Start()
	defer e.metrics.Transition.Since(t0)
	inst, err := e.lockCase(id)
	if err != nil {
		return err
	}
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotActive, id, inst.Status)
	}
	e.cancelAllTokens(inst, reason)
	inst.Status = StatusCancelled
	e.audit(&history.Event{Type: history.InstanceCancelled, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, Data: map[string]any{"reason": reason}})
	return e.finishStep(inst)
}

// Variables returns a copy of the instance's case data.
func (e *Engine) Variables(id string) (map[string]expr.Value, error) {
	inst, err := e.lockCase(id)
	if err != nil {
		return nil, err
	}
	defer inst.mu.Unlock()
	out := make(map[string]expr.Value, len(inst.Vars))
	for k, v := range inst.Vars {
		out[k] = v
	}
	return out, nil
}

// SetVariable updates one case variable on an active instance.
func (e *Engine) SetVariable(id, name string, value any) error {
	if err := e.checkWritable(); err != nil {
		return err
	}
	t0 := e.metrics.Transition.Start()
	defer e.metrics.Transition.Since(t0)
	ev, err := expr.FromGo(value)
	if err != nil {
		return err
	}
	inst, err := e.lockCase(id)
	if err != nil {
		return err
	}
	if inst.Status != StatusActive {
		inst.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotActive, id, inst.Status)
	}
	inst.Vars[name] = ev
	e.audit(&history.Event{Type: history.VariableSet, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, Data: map[string]any{"name": name}})
	return e.finishStep(inst)
}

// audit records an event in the history store when configured: the
// store encodes it and appends it to its stripe journal's write buffer
// on this goroutine, and keeps nothing of ev. Audit failures must not
// break execution; the history journal is best-effort (e.g. full disk)
// while the state journal is authoritative, and append errors surface
// via Store.Flush.
func (e *Engine) audit(ev *history.Event) {
	if e.hist != nil {
		e.hist.Enqueue(ev)
	}
}

// auditAt audits an event of inst at element path elem, timed now.
func (e *Engine) auditAt(inst *Instance, typ history.EventType, elem string, data map[string]any) {
	e.audit(&history.Event{Type: typ, Time: e.clock.Now(),
		ProcessID: inst.ProcessID, InstanceID: inst.ID, ElementID: elem, Data: data})
}

// onTaskTransition is the worklist listener resuming instances when
// their work items close.
func (e *Engine) onTaskTransition(it *task.Item, from, to task.State) {
	// A degraded engine is frozen at its last durable state: resuming
	// an instance off a worklist transition would mutate state that can
	// no longer be persisted, so the listener goes quiet alongside the
	// shutdown path.
	if e.closing.Load() || e.degraded.Load() {
		return
	}
	// Under the shard router several engines share one worklist
	// service; only the instance's owner shard audits and resumes.
	if !e.Has(it.InstanceID) {
		return
	}
	var evType history.EventType
	switch to {
	case task.Created:
		evType = history.TaskCreated
	case task.Offered:
		evType = history.TaskOffered
	case task.Allocated:
		evType = history.TaskAllocated
	case task.Started:
		evType = history.TaskStarted
	case task.Completed:
		evType = history.TaskCompleted
	case task.Failed:
		evType = history.TaskFailed
	case task.Skipped:
		evType = history.TaskSkipped
	case task.Cancelled:
		evType = ""
	}
	if evType != "" && !(from == task.Created && to == task.Created && evType != history.TaskCreated) {
		e.audit(&history.Event{Type: evType, Time: e.clock.Now(),
			ProcessID: it.ProcessID, InstanceID: it.InstanceID,
			ElementID: it.ElementID, TaskID: it.ID, Actor: it.Assignee})
	}
	switch to {
	case task.Completed:
		e.resumeWorkItem(it, true)
	case task.Failed, task.Skipped:
		e.resumeWorkItem(it, to == task.Skipped)
	}
}
