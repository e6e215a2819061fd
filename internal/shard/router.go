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
//     the owner shard, falling back to a scan when a data dir was
//     opened with a different shard count.
//   - Deployments fan out to every shard, so each shard's journal is
//     self-contained for recovery.
//   - A published message fans out to every shard (its subscriber — if
//     any — lives wherever that instance hashes to); a message nobody
//     is waiting for is buffered on the shard its correlation key
//     hashes to, and parking tokens on any shard consult that buffer
//     through the engine's BufferedMessages hook.
//
// Recovery opens all shards in parallel: each engine replays its own
// snapshot + journal suffix, and the router then re-seeds its ID
// sequence from the highest recovered instance number.
package shard

import (
	"errors"
	"fmt"
	"sort"
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
// shard). Tasks, Timers, Clock, and History are shared across shards.
type Config struct {
	// Journals holds one state journal per shard.
	Journals []storage.Journal
	// Snapshots holds one snapshot store per shard (may be nil, or
	// hold nil entries, to disable snapshot compaction).
	Snapshots []*storage.SnapshotStore
	// SnapshotEvery writes a shard snapshot after this many appends to
	// that shard's journal (0 = only on explicit Snapshot calls).
	SnapshotEvery int
	// Durable makes API-visible transitions wait for the owning
	// shard's WAL commit acknowledgement.
	Durable bool
	// Tasks is the shared worklist service.
	Tasks *task.Service
	// Timers is the shared deadline service.
	Timers timer.Service
	// Clock supplies time (default RealClock).
	Clock timer.Clock
	// History, when set, receives audit events from every shard.
	History *history.Store
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

// New builds a router over len(cfg.Journals) shards, recovering every
// shard in parallel.
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
		hist:   cfg.History,
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cfg.Journals))
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
				Durable:          cfg.Durable,
				Tasks:            cfg.Tasks,
				Timers:           cfg.Timers,
				Clock:            cfg.Clock,
				History:          cfg.History,
				Publisher:        r.Publish,
				BufferedMessages: r.takeBuffered,
				Metrics:          cfg.Metrics.EngineShard(i),
				OnDegrade:        onDegrade,
			})
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			r.shards[i] = eng
		}(i, snaps)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	r.seq.Store(r.maxInstanceSeq())
	return r, nil
}

// maxInstanceSeq scans every shard's recovered instances for the
// highest trailing sequence number, so new IDs continue past them.
func (r *Router) maxInstanceSeq() uint64 {
	var max uint64
	for _, s := range r.shards {
		if n := engine.MaxInstanceSeq(s.Instances()); n > max {
			max = n
		}
	}
	return max
}

// shardOf hashes a routing key (instance ID or correlation key) to a
// shard index. FNV-1a keeps placement stable across restarts.
func (r *Router) shardOf(key string) int {
	return int(fnv1a.Sum32(key) % uint32(len(r.shards)))
}

// owner locates the shard holding an instance: the hash shard first,
// then a scan (instances placed under a different historical shard
// count remain reachable). Unknown IDs resolve to the hash shard,
// whose engine reports the unknown-instance error.
func (r *Router) owner(id string) *engine.Engine {
	home := r.shards[r.shardOf(id)]
	if home.Has(id) {
		return home
	}
	for _, s := range r.shards {
		if s.Has(id) {
			return s
		}
	}
	return home
}

func (r *Router) audit(ev *history.Event) {
	if r.hist != nil {
		// Non-blocking hand-off to the striped history pipeline (same
		// path as the per-shard engine audit).
		r.hist.Enqueue(ev)
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
// on the shard its correlation key hashes to. Semantics (counts,
// buffering bound, audit events) match a single engine's Publish.
func (r *Router) Publish(name, key string, vars map[string]any) (int, bool, error) {
	converted, err := engine.ConvertVars(vars)
	if err != nil {
		return 0, false, err
	}
	r.audit(&history.Event{Type: history.MessagePublished, Time: r.clock.Now(),
		Data: map[string]any{"message": name, "key": key}})
	delivered := 0
	for _, s := range r.shards {
		delivered += s.PublishLocal(name, key, converted)
	}
	if delivered == 0 {
		if r.shards[r.shardOf(key)].BufferMessage(name, key, converted) {
			r.audit(&history.Event{Type: history.MessageBuffered, Time: r.clock.Now(),
				Data: map[string]any{"message": name, "key": key}})
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("engine: message buffer full, %q dropped", name)
	}
	return delivered, false, nil
}

// takeBuffered is the cross-shard early-message lookup installed on
// every shard: a token parking at a receive point consults the buffer
// on the shard the correlation key hashes to.
func (r *Router) takeBuffered(name, key string) (map[string]expr.Value, bool) {
	return r.shards[r.shardOf(key)].TakeBuffered(name, key)
}

// TrySnapshot asks every shard to start an asynchronous snapshot
// unless one is already in flight or the shard's journal has not
// advanced past its last snapshot. The time-based scheduler drives it;
// it returns the number of shards that started a snapshot.
func (r *Router) TrySnapshot() int {
	n := 0
	for _, s := range r.shards {
		if s.TrySnapshot() {
			n++
		}
	}
	return n
}

// RecoveryDuration reports how long one shard's boot-time recovery
// took (zero when the shard started fresh).
func (r *Router) RecoveryDuration(i int) time.Duration {
	return r.shards[i].RecoveryDuration()
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
