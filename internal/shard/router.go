// Package shard implements the sharded engine runtime: N independent
// enactment engines, each with its own write-ahead log, snapshot
// store, and group-commit batcher, behind a Router that partitions
// process instances by hashing their IDs. The worklist, organisational
// directory, timer wheel, and history store remain shared, so users
// see one system while durable state transitions on different shards
// commit through independent fsync pipelines (experiment T11 measures
// the resulting near-linear durable-throughput scaling).
//
// Routing rules:
//
//   - An instance lives on the shard its ID hashes to (FNV-1a); the
//     router allocates IDs from one sequence and dispatches every
//     instance-addressed operation (query, cancel, variable update) to
//     that shard. A data dir reopens only with the shard count it was
//     created with, so the hash shard is the owner.
//   - Deployments fan out to every shard, so each shard's journal is
//     self-contained for recovery.
//   - A published message fans out to every shard (its subscriber — if
//     any — lives wherever that instance hashes to); a message nobody
//     is waiting for is buffered on the shard its correlation key
//     hashes to, and parking tokens on any shard consult that buffer
//     through the engine's BufferedMessages hook. If that shard is
//     degraded, the message is refused with engine.ErrDegraded instead.
//   - Messages thrown by send tasks take the same path: the router is
//     every engine's Publisher.
//
// The router is the only code that builds engines, so instance IDs and
// message publication each have one implementation, here. Recovery
// runs in two steps. Every shard loads its own snapshot + journal
// suffix in parallel, which reads nothing shared, so the history store
// may still be opening meanwhile (Config.History). Once all shards have
// loaded and the store is open, every shard arms its live cases in
// parallel: work items are issued again, recording task.created, and
// timers and subscriptions are registered. The router's ID sequence
// continues past the highest instance number any shard loaded.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/fnv1a"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/obs"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// Config assembles a Router. Journals supplies one state journal per
// shard (its length is the shard count); Snapshots, when non-nil, must
// be parallel to Journals (nil entries disable snapshots for that
// shard). Tasks, Timers, Clock, and the History store are shared
// across shards.
type Config struct {
	// Journals holds one state journal per shard.
	Journals []storage.Journal
	// Snapshots holds one snapshot store per shard (may be nil, or
	// hold nil entries, to disable snapshot compaction).
	Snapshots []*storage.SnapshotStore
	// SnapshotEvery writes a shard snapshot after this many appends to
	// that shard's journal (0 = only on explicit Snapshot calls).
	SnapshotEvery int
	// SnapshotInterval snapshots a shard on this wall-clock cadence
	// whenever its journal has advanced past its last snapshot (0 =
	// off).
	SnapshotInterval time.Duration
	// Tasks is the shared worklist service.
	Tasks *task.Service
	// Timers is the shared deadline service.
	Timers timer.Service
	// Clock supplies time (default RealClock).
	Clock timer.Clock
	// History, when set, supplies the store that receives audit events
	// from every shard. New calls it exactly once, after every shard
	// has loaded and before any arms, so it may block while the store
	// finishes opening; its error fails New.
	History func() (*history.Store, error)
	// Metrics, when set, instruments each shard's engine hot paths
	// with per-shard latency handles.
	Metrics *obs.Metrics
	// OnDegrade, when set, is called (at most once per shard) when a
	// shard fail-stops on a storage I/O error.
	OnDegrade func(shard int, reason string)
}

// Stat reports one shard's load for monitoring.
type Stat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Instances is the number of process instances on the shard.
	Instances int `json:"instances"`
	// Archived is how many of them are finished cases kept as their
	// final record (Instances - Archived are live).
	Archived int `json:"archived"`
	// ReissueFailures counts work items recovery could not re-issue.
	ReissueFailures uint64 `json:"reissueFailures"`
	// Degraded reports a fail-stopped (read-only) shard.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason is the storage error that froze the shard.
	DegradedReason string `json:"degradedReason,omitempty"`
}

// Router is the sharded enactment runtime. It exposes the same surface
// as a single engine — the system facade and the HTTP API program
// against it — and is safe for concurrent use.
type Router struct {
	shards []*engine.Engine
	clock  timer.Clock
	hist   *history.Store
	seq    atomic.Uint64
}

// New builds a router over len(cfg.Journals) shards: every shard loads
// in parallel, then, with the history store in hand, every shard arms
// in parallel. A failed load or history open fails New with all the
// errors joined; no shard is armed then.
func New(cfg Config) (*Router, error) {
	if len(cfg.Journals) == 0 {
		return nil, fmt.Errorf("shard: no journals")
	}
	if cfg.Clock == nil {
		cfg.Clock = timer.RealClock{}
	}
	r := &Router{
		shards: make([]*engine.Engine, len(cfg.Journals)),
		clock:  cfg.Clock,
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cfg.Journals), len(cfg.Journals)+1)
	seqs := make([]uint64, len(cfg.Journals))
	for i := range cfg.Journals {
		var snaps *storage.SnapshotStore
		if i < len(cfg.Snapshots) {
			snaps = cfg.Snapshots[i]
		}
		wg.Add(1)
		go func(i int, snaps *storage.SnapshotStore) {
			defer wg.Done()
			var onDegrade func(string)
			if cfg.OnDegrade != nil {
				onDegrade = func(reason string) { cfg.OnDegrade(i, reason) }
			}
			eng, err := engine.New(engine.Config{
				Journal:          cfg.Journals[i],
				Snapshots:        snaps,
				SnapshotEvery:    cfg.SnapshotEvery,
				SnapshotInterval: cfg.SnapshotInterval,
				Tasks:            cfg.Tasks,
				Timers:           cfg.Timers,
				Clock:            cfg.Clock,
				Publisher:        r.publish,
				BufferedMessages: r.takeBuffered,
				Metrics:          cfg.Metrics.EngineShard(i),
				OnDegrade:        onDegrade,
			})
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			r.shards[i] = eng
			seqs[i] = maxInstanceSeq(eng)
		}(i, snaps)
	}
	wg.Wait()
	if cfg.History != nil {
		var err error
		r.hist, err = cfg.History()
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		// None has started a snapshotter; Close quiets their worklist
		// listeners.
		for _, s := range r.shards {
			if s != nil {
				s.Close()
			}
		}
		return nil, err
	}
	for _, s := range r.shards {
		wg.Add(1)
		go func(s *engine.Engine) {
			defer wg.Done()
			s.Start(r.hist)
		}(s)
	}
	wg.Wait()
	r.seq.Store(slices.Max(seqs))
	return r, nil
}

// maxInstanceSeq scans a loaded shard's instances for the highest
// trailing sequence number, so new IDs continue past every shard's.
func maxInstanceSeq(e *engine.Engine) uint64 {
	var seq uint64
	for _, id := range e.Instances() {
		seq = max(seq, instanceSeq(id))
	}
	return seq
}

// instanceSeq returns an instance ID's trailing "-<n>" number (0 when
// it has none).
func instanceSeq(id string) uint64 {
	if i := strings.LastIndex(id, "-"); i >= 0 {
		if n, err := strconv.ParseUint(id[i+1:], 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// shardOf hashes a routing key (instance ID or correlation key) to a
// shard index. FNV-1a keeps placement stable across restarts.
func (r *Router) shardOf(key string) int {
	return int(fnv1a.Sum32(key) % uint32(len(r.shards)))
}

// owner is the shard an instance ID hashes to: StartInstance placed it
// there. For an unknown ID that engine reports the unknown-instance
// error.
func (r *Router) owner(id string) *engine.Engine {
	return r.shards[r.shardOf(id)]
}

func (r *Router) audit(ev *history.Event) {
	if r.hist != nil {
		r.hist.Enqueue(ev) // as the per-shard engine audit does
	}
}

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes one shard's engine (tests and diagnostics).
func (r *Router) Shard(i int) *engine.Engine { return r.shards[i] }

// Stats reports per-shard instance counts and degradation state.
func (r *Router) Stats() []Stat {
	out := make([]Stat, len(r.shards))
	for i, s := range r.shards {
		st := Stat{Shard: i, Instances: s.InstanceCount(), Archived: s.ArchivedCount(),
			ReissueFailures: s.ReissueFailures()}
		if s.Degraded() {
			st.Degraded = true
			st.DegradedReason, _ = s.DegradedReason()
		}
		out[i] = st
	}
	return out
}

// OwnerDegraded reports whether the shard owning the given instance ID
// has fail-stopped (the API refuses writes to it with 503
// shard_degraded while reads keep serving).
func (r *Router) OwnerDegraded(id string) bool {
	return r.owner(id).Degraded()
}

// DegradedShards returns the indices of fail-stopped shards (empty
// while fully healthy; readiness requires it empty).
func (r *Router) DegradedShards() []int {
	var out []int
	for i, s := range r.shards {
		if s.Degraded() {
			out = append(out, i)
		}
	}
	return out
}

// RegisterHandler binds a service-task handler on every shard.
func (r *Router) RegisterHandler(name string, h engine.Handler) {
	for _, s := range r.shards {
		s.RegisterHandler(name, h)
	}
}

// Deploy validates, compiles, and registers a definition on every
// shard (each shard persists it in its own journal; the deployment is
// audited once).
func (r *Router) Deploy(p *model.Process) error {
	for i, s := range r.shards {
		var err error
		if i == 0 {
			err = s.Deploy(p)
		} else {
			err = s.DeployReplica(p)
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Definition returns a deployed definition (shared; do not mutate).
func (r *Router) Definition(id string) (*model.Process, bool) {
	return r.shards[0].Definition(id)
}

// Definitions returns the IDs of all deployed definitions, sorted.
func (r *Router) Definitions() []string {
	return r.shards[0].Definitions()
}

// Tasks exposes the shared worklist service.
func (r *Router) Tasks() *task.Service { return r.shards[0].Tasks() }

// Now returns the runtime clock's current time.
func (r *Router) Now() time.Time { return r.clock.Now() }

// StartInstance allocates an instance ID and starts the instance on
// the shard the ID hashes to.
func (r *Router) StartInstance(processID string, vars map[string]any) (*engine.InstanceView, error) {
	id := fmt.Sprintf("%s-%d", processID, r.seq.Add(1))
	return r.shards[r.shardOf(id)].StartInstanceID(processID, id, vars)
}

// Instance returns a point-in-time view of an instance.
func (r *Router) Instance(id string) (*engine.InstanceView, error) {
	return r.owner(id).Instance(id)
}

// Instances returns the IDs of all instances across shards, sorted.
func (r *Router) Instances() []string {
	var out []string
	for _, s := range r.shards {
		out = append(out, s.Instances()...)
	}
	sort.Strings(out)
	return out
}

// Summaries returns a summary row per instance across all shards,
// sorted by ID.
func (r *Router) Summaries() []engine.InstanceSummary {
	var out []engine.InstanceSummary
	for _, s := range r.shards {
		out = append(out, s.Summaries()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelInstance cancels an active instance on its owner shard.
func (r *Router) CancelInstance(id, reason string) error {
	return r.owner(id).CancelInstance(id, reason)
}

// Variables returns a copy of the instance's case data.
func (r *Router) Variables(id string) (map[string]expr.Value, error) {
	return r.owner(id).Variables(id)
}

// SetVariable updates one case variable on an active instance.
func (r *Router) SetVariable(id, name string, value any) error {
	return r.owner(id).SetVariable(id, name, value)
}

// Publish fans a correlated message out to every shard's waiting
// subscriptions; when nobody waits anywhere, the message is buffered
// on the shard its correlation key hashes to. It returns the number of
// resumed waits and whether the message was buffered instead.
func (r *Router) Publish(name, key string, vars map[string]any) (int, bool, error) {
	converted, err := engine.ConvertVars(vars)
	if err != nil {
		return 0, false, err
	}
	return r.publish(name, key, converted)
}

// publish is Publish on converted variables, and every engine's
// Publisher: messages thrown by send tasks come through it too. A
// message nobody waits for is refused, not buffered, when its buffer
// shard is degraded or its buffer is full.
func (r *Router) publish(name, key string, vars map[string]expr.Value) (int, bool, error) {
	r.audit(&history.Event{Type: history.MessagePublished, Time: r.clock.Now(),
		Data: map[string]any{"message": name, "key": key}})
	delivered := 0
	for _, s := range r.shards {
		delivered += s.PublishLocal(name, key, vars)
	}
	if delivered > 0 {
		return delivered, false, nil
	}
	if err := r.shards[r.shardOf(key)].BufferMessage(name, key, vars); err != nil {
		return 0, false, err
	}
	r.audit(&history.Event{Type: history.MessageBuffered, Time: r.clock.Now(),
		Data: map[string]any{"message": name, "key": key}})
	return 0, true, nil
}

// takeBuffered is the cross-shard early-message lookup installed on
// every shard: a token parking at a receive point consults the buffer
// on the shard the correlation key hashes to.
func (r *Router) takeBuffered(name, key string) (map[string]expr.Value, bool) {
	return r.shards[r.shardOf(key)].TakeBuffered(name, key)
}

// Close ends every shard's snapshots (engine.Close) before the caller
// closes the shard journals.
func (r *Router) Close() {
	for _, s := range r.shards {
		s.Close()
	}
}

// Recovery reports how long one shard's boot took to load its snapshot
// and journal and to arm its live cases (see engine.Engine.Recovery).
func (r *Router) Recovery(i int) (load, arm time.Duration) {
	return r.shards[i].Recovery()
}

// Snapshot writes a state snapshot on every shard (and compacts each
// shard's journal prefix). It is the admin snapshot trigger behind
// `bpmsctl snapshot`; shards without a snapshot store fail.
func (r *Router) Snapshot() error {
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, s *engine.Engine) {
			defer wg.Done()
			if err := s.Snapshot(); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}
