// Package core assembles the BPMS subsystems — engine, worklist,
// organisational directory, timers, history, and storage — into one
// configurable system object, the way the classic BPMS reference
// architecture wires its components. It is the implementation behind
// the repository's public root package.
package core

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpms/internal/fault"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/obs"
	"bpms/internal/resource"
	"bpms/internal/rules"
	"bpms/internal/shard"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
	"bpms/internal/verify"
)

// Options configures a BPMS.
type Options struct {
	// DataDir persists the state journal, history journal, and
	// snapshots under this directory. Every file journal group-commits:
	// a state transition returns only after its batch's fsync, and
	// history records reach stable storage within BatchMaxDelay. Empty
	// runs fully in memory: engine state records are numbered but not
	// kept (nothing replays them), and the audit trail is kept packed
	// in RAM, where it answers every history query as a data dir's
	// journal would.
	DataDir string
	// Shards partitions process instances across this many independent
	// engine shards, each with its own WAL, snapshot store, and
	// group-commit batcher (default 1), and their audit trail across as
	// many history journals, placed by the same hash. With a DataDir and
	// Shards > 1, shard state lives in per-shard subdirectories
	// (shard-0000/…) and history in history/stripe-0000/…; a data dir
	// must be reopened with the shard count it was created with. A data
	// dir keeps the history journals it was created with (see
	// historyDirs).
	Shards int
	// SyncPolicy is ignored: every file journal group-commits.
	SyncPolicy storage.SyncPolicy
	// SyncInterval is ignored: see SyncPolicy.
	SyncInterval int
	// BatchMaxDelay bounds how long a journal record that no caller
	// waits for stays unsynced (default 2ms).
	BatchMaxDelay time.Duration
	// Durable is ignored: with a DataDir every state transition waits
	// for its group commit.
	Durable bool
	// SnapshotEvery writes a state snapshot after this many journal
	// appends (0 disables snapshots; requires DataDir).
	SnapshotEvery int
	// SnapshotInterval snapshots every shard whose journal advanced on
	// a wall-clock cadence, complementing the append-count trigger:
	// a shard trickling writes still gets its replay prefix bounded
	// (0 disables the time trigger; requires DataDir).
	SnapshotInterval time.Duration
	// SegmentSize caps each WAL segment file before rollover (default
	// 4MiB). Smaller segments tighten snapshot truncation granularity;
	// the crash-recovery gate uses tiny segments to observe it.
	SegmentSize int64
	// HistoryStripes is ignored: the history has one journal per shard.
	HistoryStripes int
	// HistoryWindow bounds the number of audit events each history
	// journal (one per shard) keeps resident in RAM (0 = unbounded), as
	// their packed journal records. Older events stay queryable through
	// journal replay.
	HistoryWindow int
	// WorklistStripes is ignored: the worklist is one store.
	WorklistStripes int
	// AutoAllocate pushes role-routed tasks to users via Policy
	// instead of offering them for claiming.
	AutoAllocate bool
	// Policy is the work-allocation policy (default shortest-queue).
	Policy resource.Policy
	// Clock supplies time (default the system clock). Tests and
	// simulations pass a timer.VirtualClock.
	Clock timer.Clock
	// TimerTick is the timing-wheel granularity (default 10ms).
	TimerTick time.Duration
	// RunTimers starts a background runner driving the timer wheel
	// from the clock (disable when driving time manually).
	RunTimers bool
	// Users seeds the organisational directory before recovery runs,
	// so work items re-issued during recovery route to the right
	// people.
	Users []resource.User
	// Metrics, when set, instruments the hot paths of every subsystem
	// (engine shards, WALs, history stripes, worklist, timers) with
	// the obs registry's lock-free handles and registers the scrape
	// samplers. Nil runs fully uninstrumented: each site pays one
	// branch and no clock reads.
	Metrics *obs.Metrics
	// TaskSLA applies a default due time to work items created
	// without an explicit deadline, so every open item is reported
	// when it runs late (0 = only explicit dueIn deadlines are).
	TaskSLA time.Duration
	// FS is the filesystem the state and history journals and snapshot
	// stores operate through (default the real OS filesystem). Chaos
	// runs pass a fault.Injector here (bpmsd -fault); when the value
	// also implements fault.Reporter, FaultReport exposes its tally.
	FS fault.FS
	// OnDegrade, when set, is called at most once per shard when that
	// shard fail-stops on a storage I/O error (after the built-in log
	// line and before the next /api/stats scrape can observe it).
	OnDegrade func(shard int, reason string)
}

// BPMS is a fully assembled business process management system.
type BPMS struct {
	// Engine is the enactment runtime: one or more engine shards
	// behind an instance-hash router presenting the single-engine
	// surface.
	Engine *shard.Router
	// Tasks is the worklist service (one store for every shard).
	Tasks *task.Service
	// Directory is the organisational model.
	Directory *resource.Directory
	// History is the audit store: one journal per shard, placed by the
	// shard router's hash.
	History *history.Store
	// Timers is the deadline service.
	Timers timer.Service
	// Metrics is the observability registry (nil when the system runs
	// uninstrumented).
	Metrics *obs.Metrics
	// Upgrade is what Open's one-shot rewrite of a data dir in an older
	// format did (zero when there was nothing to rewrite).
	Upgrade UpgradeReport

	clock  timer.Clock
	runner *timer.Runner
	state  []storage.Journal // one per shard
	dirs   []string          // per-shard data dirs (empty in memory)
	fs     fault.FS          // filesystem behind the journals/snapshots

	// soundness memoises each definition's verdict by ID: nil when
	// sound, its violation when not. A deployed definition never
	// changes, so it is verified once.
	soundMu   sync.Mutex
	soundness map[string]*Violation
}

// Violation kinds.
const (
	// KindTaskOverdue: an open work item whose due time has passed
	// (explicit dueIn deadlines and the TaskSLA default alike).
	KindTaskOverdue = "task_overdue"
	// KindDefinitionUnsound: a deployed process definition that fails
	// soundness verification.
	KindDefinitionUnsound = "definition_unsound"
)

// Violation is one open SLA violation.
type Violation struct {
	// Kind classifies the violation (Kind* constants).
	Kind string `json:"kind"`
	// ID identifies the violating object within its kind: work-item ID
	// or process-definition ID.
	ID string `json:"id"`
	// InstanceID / ProcessID locate the violation in the process space
	// when known.
	InstanceID string `json:"instanceId,omitempty"`
	ProcessID  string `json:"processId,omitempty"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail,omitempty"`
	// Since is the work item's due time, or when the definition was
	// verified.
	Since time.Time `json:"since"`
	// Detected is when the work item's deadline fired, or when the
	// definition was verified.
	Detected time.Time `json:"detected"`
}

// shardDir returns the on-disk home of one shard's state. A single
// shard keeps the pre-sharding layout (state/, snapshots/ directly
// under DataDir) so existing data dirs reopen unchanged.
func shardDir(dataDir string, shards, i int) string {
	if shards <= 1 {
		return dataDir
	}
	return filepath.Join(dataDir, fmt.Sprintf("shard-%04d", i))
}

// partitionDirs counts the subdirectories of dir named prefix+NNNN.
func partitionDirs(dir, prefix string) int {
	n := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() && len(name) == len(prefix)+4 && strings.HasPrefix(name, prefix) {
			if _, err := strconv.Atoi(name[len(prefix):]); err == nil {
				n++
			}
		}
	}
	return n
}

// checkShardLayout rejects reopening a data dir under a different shard
// count (shard-NNNN dirs vs the state/ dir directly under DataDir):
// instances would silently vanish from queries, or new shards would
// start empty, because the layout no longer matches the journals on
// disk.
func checkShardLayout(dataDir string, shards int) error {
	existing := partitionDirs(dataDir, "shard-")
	_, err := os.Stat(filepath.Join(dataDir, "state"))
	switch single := err == nil; {
	case shards <= 1 && existing > 0:
		return fmt.Errorf("core: data dir %s holds %d-shard state; reopen it with the shard count it was created with", dataDir, existing)
	case shards > 1 && single:
		return fmt.Errorf("core: data dir %s holds single-shard state; resharding an existing data dir is not supported", dataDir)
	case shards > 1 && existing > 0 && existing != shards:
		return fmt.Errorf("core: data dir %s was created with %d shards, not %d; reopen it with the shard count it was created with", dataDir, existing, shards)
	}
	return nil
}

// historyDirs returns the dirs of a data dir's history journals. A dir
// that already holds a history keeps its journals: history/ itself when
// it holds wal-* files, else its history/stripe-NNNN dirs. Events hash
// by instance ID onto the journals, so a dir written with a history
// stripe count other than its shard count reopens with its own
// journals. A new history gets one journal per shard: history/ for one,
// history/stripe-NNNN for several. A dir holding both layouts, or
// stripe dirs not numbered 0…n-1, is refused.
func historyDirs(dataDir string, shards int) ([]string, error) {
	histDir := filepath.Join(dataDir, "history")
	entries, err := os.ReadDir(histDir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("core: read %s: %w", histDir, err)
	}
	flat := slices.ContainsFunc(entries, func(e os.DirEntry) bool {
		return !e.IsDir() && strings.HasPrefix(e.Name(), "wal-")
	})
	n := partitionDirs(histDir, "stripe-")
	found := n > 0
	switch {
	case flat && found:
		return nil, fmt.Errorf("core: data dir %s holds history journals in both layouts (history/wal-* and history/stripe-NNNN)", dataDir)
	case flat || (!found && shards <= 1):
		return []string{histDir}, nil
	case !found:
		n = shards
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(histDir, fmt.Sprintf("stripe-%04d", i))
		if _, err := os.Stat(dirs[i]); found && err != nil {
			return nil, fmt.Errorf("core: data dir %s holds %d history journals, but not %s", dataDir, n, dirs[i])
		}
	}
	return dirs, nil
}

// openHistory opens the history journals (one per dir, or n in memory
// when there are no dirs) and replays them into a store. On failure
// it closes what it opened.
func openHistory(opts Options, dirs []string, n int, jopts storage.Options) (*history.Store, error) {
	if dirs != nil {
		n = len(dirs)
	}
	journals := make([]storage.Journal, n)
	closeAll := func() {
		for _, j := range journals {
			if j != nil {
				j.Close()
			}
		}
	}
	for i := range journals {
		if dirs == nil {
			journals[i] = storage.NewMemJournal()
			continue
		}
		jo := jopts
		jo.Metrics = opts.Metrics.WAL(fmt.Sprintf("history-%d", i))
		j, err := storage.OpenFileJournal(dirs[i], jo)
		if err != nil {
			closeAll()
			return nil, err
		}
		journals[i] = j
	}
	hist, err := history.NewStriped(journals, history.StoreOptions{
		Window:  opts.HistoryWindow,
		Metrics: opts.Metrics,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	return hist, nil
}

// Open assembles and (when DataDir is set) recovers a BPMS. The
// history journals open and replay on a goroutine of their own while
// the shards load their snapshots and state journals, each shard on
// its own goroutine (shard.New). The two join before the first audit
// event: the shards arm their live cases (re-issuing work items records
// task.created) only once the store is open. A failure on either side
// fails Open with every error joined, and leaves no goroutine behind.
func Open(opts Options) (*BPMS, error) {
	began := time.Now()
	if opts.Clock == nil {
		opts.Clock = timer.RealClock{}
	}
	if opts.Policy == nil {
		opts.Policy = resource.ShortestQueuePolicy{}
	}
	if opts.TimerTick <= 0 {
		opts.TimerTick = 10 * time.Millisecond
	}
	if opts.FS == nil {
		opts.FS = fault.OS
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	var histDirs []string
	var upgrade UpgradeReport
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: create data dir: %w", err)
		}
		if err := checkShardLayout(opts.DataDir, shards); err != nil {
			return nil, err
		}
		var err error
		if histDirs, err = historyDirs(opts.DataDir, shards); err != nil {
			return nil, err
		}
		if upgrade, err = upgradeDataDir(opts.FS, opts.DataDir, shards, histDirs); err != nil {
			return nil, err
		}
	}
	jopts := storage.Options{
		SegmentSize:   opts.SegmentSize,
		BatchMaxDelay: opts.BatchMaxDelay,
		FS:            opts.FS,
	}

	var hist *history.Store
	var histErr error
	histDone := make(chan struct{})
	go func() {
		defer close(histDone)
		hist, histErr = openHistory(opts, histDirs, shards, jopts)
	}()
	waitHistory := func() (*history.Store, error) {
		<-histDone
		return hist, histErr
	}

	stateJournals := make([]storage.Journal, shards)
	snaps := make([]*storage.SnapshotStore, shards)
	closeState := func() {
		for _, j := range stateJournals {
			if j != nil {
				j.Close()
			}
		}
	}
	if opts.DataDir != "" {
		for i := 0; i < shards; i++ {
			dir := shardDir(opts.DataDir, shards, i)
			jo := jopts
			jo.Metrics = opts.Metrics.WAL(fmt.Sprintf("state-%d", i))
			sj, err := storage.OpenFileJournal(filepath.Join(dir, "state"), jo)
			if err == nil {
				stateJournals[i] = sj
				snaps[i], err = storage.OpenSnapshotStoreFS(filepath.Join(dir, "snapshots"), 2, opts.FS)
			}
			if err != nil {
				closeState()
				if h, herr := waitHistory(); herr != nil {
					err = errors.Join(err, herr)
				} else {
					h.Close()
				}
				return nil, err
			}
		}
	} else {
		// Nothing reads a state journal after open unless a snapshot
		// store exists, and in memory none does: keep only the count.
		for i := range stateJournals {
			stateJournals[i] = storage.NewDiscardJournal()
		}
	}
	dir := resource.NewDirectory()
	for i := range opts.Users {
		dir.AddUser(&opts.Users[i])
	}
	wheel := timer.NewWheelService(opts.TimerTick, 512)
	if opts.Metrics != nil {
		wheel.SetFireLag(opts.Metrics.Timers().FireLag)
	}
	tasks := task.NewService(task.Config{
		Directory:    dir,
		Policy:       opts.Policy,
		AutoAllocate: opts.AutoAllocate,
		Now:          opts.Clock.Now,
		DefaultSLA:   opts.TaskSLA,
		Timers:       wheel,
		OnOverdue: func(o task.OverdueItem) {
			report(opts.Metrics, hist, overdueViolation(o))
		},
		Metrics: opts.Metrics.Tasks(),
	})
	onDegrade := opts.OnDegrade
	router, err := shard.New(shard.Config{
		Journals:         stateJournals,
		Snapshots:        snaps,
		SnapshotEvery:    opts.SnapshotEvery,
		SnapshotInterval: opts.SnapshotInterval,
		Tasks:            tasks,
		Timers:           wheel,
		Clock:            opts.Clock,
		History:          waitHistory,
		Metrics:          opts.Metrics,
		OnDegrade: func(i int, reason string) {
			log.Printf("core: shard %d fail-stopped (read-only degraded mode): %s", i, reason)
			if onDegrade != nil {
				onDegrade(i, reason)
			}
		},
	})
	if err != nil {
		// The router waited for the history and joined its error.
		closeState()
		if h, _ := waitHistory(); h != nil {
			h.Close()
		}
		return nil, err
	}
	var unissued uint64
	for _, s := range router.Stats() {
		unissued += s.ReissueFailures
	}
	if unissued > 0 {
		log.Printf("core: recovery could not re-issue %d work item(s); their instances stay parked (shards[].reissueFailures in /api/v1/stats)", unissued)
	}
	shardDirs := make([]string, 0, shards)
	if opts.DataDir != "" {
		for i := 0; i < shards; i++ {
			shardDirs = append(shardDirs, shardDir(opts.DataDir, shards, i))
		}
	}
	b := &BPMS{
		Engine:    router,
		Tasks:     tasks,
		Directory: dir,
		History:   hist,
		Timers:    wheel,
		Metrics:   opts.Metrics,
		Upgrade:   upgrade,
		clock:     opts.Clock,
		state:     stateJournals,
		dirs:      shardDirs,
		fs:        opts.FS,
		soundness: map[string]*Violation{},
	}
	if opts.Metrics != nil {
		// The shards load beside the history replay, then arm.
		var load, arm time.Duration
		for i := 0; i < shards; i++ {
			l, a := router.Recovery(i)
			load, arm = max(load, l), max(arm, a)
		}
		opts.Metrics.Recovery("history").SetFloat(hist.Stats().RecoverySeconds)
		opts.Metrics.Recovery("engine").SetFloat((load + arm).Seconds())
		opts.Metrics.Recovery("open").SetFloat(time.Since(began).Seconds())
		b.registerSamplers(opts.Metrics)
		// Decision tables are compiled ad hoc (script tasks, API
		// callers), not owned by core, so their instruments attach
		// through the package-level hook.
		rules.SetMetrics(opts.Metrics)
	}
	if opts.RunTimers {
		b.runner = timer.NewRunner(wheel, opts.Clock, opts.TimerTick)
		b.runner.Start()
	}
	return b, nil
}

// registerSamplers wires the scrape-time gauges: values read from
// subsystem state on each /metrics scrape instead of being maintained
// on the hot paths.
func (b *BPMS) registerSamplers(m *obs.Metrics) {
	tm := m.Tasks()
	tim := m.Timers()
	m.AddSampler(func() {
		for state, n := range b.Tasks.Stats().ByState {
			tm.Items(state).Set(int64(n))
		}
		tim.Pending.Set(int64(b.Timers.Pending()))
		for _, s := range b.Engine.Stats() {
			m.ShardInstances(s.Shard).Set(int64(s.Instances))
			degraded := int64(0)
			if s.Degraded {
				degraded = 1
			}
			m.ShardDegraded(s.Shard).Set(degraded)
		}
	})
}

// report counts a newly detected violation and writes its one
// sla.violation event to the audit trail.
func report(m *obs.Metrics, hist *history.Store, v Violation) {
	m.Violations(v.Kind).Inc()
	ev := &history.Event{
		Type:       history.SLAViolation,
		Time:       v.Detected,
		ProcessID:  v.ProcessID,
		InstanceID: v.InstanceID,
		Data: map[string]any{
			"kind":   v.Kind,
			"object": v.ID,
			"detail": v.Detail,
			"since":  v.Since,
		},
	}
	if v.Kind == KindTaskOverdue {
		ev.TaskID = v.ID
	}
	hist.Enqueue(ev)
}

// overdueViolation describes a work item whose deadline fired.
func overdueViolation(o task.OverdueItem) Violation {
	it := o.Item
	return Violation{
		Kind:       KindTaskOverdue,
		ID:         it.ID,
		InstanceID: it.InstanceID,
		ProcessID:  it.ProcessID,
		Detail: fmt.Sprintf("work item %s (%s, state %s) open past its due time %s",
			it.ID, it.Name, it.State, it.DueAt.Format(time.RFC3339)),
		Since:    it.DueAt,
		Detected: o.Detected,
	}
}

// checkSoundness verifies a definition, returning its violation (nil
// when sound). A check that cannot finish within its state budget
// counts as unsound.
func (b *BPMS) checkSoundness(p *model.Process) *Violation {
	res, err := verify.Check(p, verify.Options{MaxStates: 50000, UseReduction: true})
	var detail string
	switch {
	case err != nil:
		detail = fmt.Sprintf("soundness verification failed: %v", err)
	case !res.Sound:
		detail = "definition is not sound"
		if len(res.Violations) > 0 {
			detail = res.Violations[0]
		}
	default:
		return nil
	}
	now := b.clock.Now()
	return &Violation{Kind: KindDefinitionUnsound, ID: p.ID, ProcessID: p.ID, Detail: detail, Since: now, Detected: now}
}

// Deploy deploys a definition on every shard and verifies its
// soundness once. An unsound definition is still deployed, and is
// reported at once: one sla.violation event, one count, and a row in
// Violations for as long as it stays deployed.
func (b *BPMS) Deploy(p *model.Process) error {
	if err := b.Engine.Deploy(p); err != nil {
		return err
	}
	v := b.checkSoundness(p)
	b.soundMu.Lock()
	b.soundness[p.ID] = v
	b.soundMu.Unlock()
	if v != nil {
		report(b.Metrics, b.History, *v)
	}
	return nil
}

// Violations lists the open SLA violations by detection time: work
// items whose deadline fired while they are open, and unsound deployed
// definitions. A definition that did not come through Deploy (one
// recovered at boot) is verified by the first listing that sees it,
// once, and reports no event: it was reported when it was deployed.
func (b *BPMS) Violations() []Violation {
	out := []Violation{}
	for _, o := range b.Tasks.Overdue() {
		out = append(out, overdueViolation(o))
	}
	b.soundMu.Lock()
	for _, id := range b.Engine.Definitions() {
		v, ok := b.soundness[id]
		if !ok {
			p, found := b.Engine.Definition(id)
			if !found {
				continue
			}
			v = b.checkSoundness(p)
			b.soundness[id] = v
		}
		if v != nil {
			out = append(out, *v)
		}
	}
	b.soundMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Detected.Equal(out[j].Detected) {
			return out[i].Detected.Before(out[j].Detected)
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Close stops the timer runner, ends the shards' snapshots (waiting for
// a running round), and syncs/closes every journal (all shard WALs plus
// the history journals). This drains in-flight commit batches: every
// acknowledged append is on stable storage when Close returns.
func (b *BPMS) Close() error {
	if b.runner != nil {
		b.runner.Stop()
	}
	b.Engine.Close()
	var first error
	for _, j := range b.state {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := b.History.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// SyncJournals forces every journal to stable storage (without
// closing them): every audit event recorded before the call is durable
// on return.
func (b *BPMS) SyncJournals() error {
	var first error
	for _, j := range b.state {
		if err := j.Sync(); err != nil && first == nil {
			first = err
		}
	}
	if err := b.History.Flush(); err != nil && first == nil {
		first = err
	}
	return first
}

// JournalIndexes reports the state journals' last appended and last
// synced record indices, summed across shards (for shutdown summaries
// and monitoring; with one shard these are the state journal's
// indices). Both remain readable after Close.
func (b *BPMS) JournalIndexes() (last, synced uint64) {
	for _, j := range b.state {
		last += j.LastIndex()
		synced += j.SyncedIndex()
	}
	return last, synced
}

// ShardStat describes one shard's load plus its journal position,
// boot-time recovery cost, and on-disk footprint.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Instances is the number of process instances on the shard.
	Instances int `json:"instances"`
	// Archived is how many of them are finished cases kept as their
	// final record (Instances - Archived are live).
	Archived int `json:"archived"`
	// ReissueFailures counts work items recovery could not re-issue for
	// parked user-task tokens (those instances stay parked).
	ReissueFailures uint64 `json:"reissueFailures"`
	// JournalLast is the shard WAL's last appended record index.
	JournalLast uint64 `json:"journalLast"`
	// JournalSynced is the shard WAL's last durably synced index.
	JournalSynced uint64 `json:"journalSynced"`
	// LoadSeconds is how long this shard's boot took to read its
	// snapshot and journal; ArmSeconds, how long re-issuing its open work
	// items and re-arming its timers and subscriptions took. Both are 0
	// when the shard started fresh; neither counts the wait for the
	// history store, which replays beside the load.
	LoadSeconds float64 `json:"loadSeconds"`
	ArmSeconds  float64 `json:"armSeconds"`
	// DiskBytes is the shard's on-disk footprint (its state/ WAL
	// segments plus its snapshots/); 0 when running in memory. History
	// journals and FORMAT are not counted.
	DiskBytes int64 `json:"diskBytes"`
	// Degraded reports a fail-stopped shard serving reads only.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason is the storage error that froze the shard.
	DegradedReason string `json:"degradedReason,omitempty"`
}

// dirSize sums the sizes of all regular files under root (0 when the
// directory does not exist).
func dirSize(root string) int64 {
	var n int64
	_ = filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// ShardStats reports per-shard instance counts, journal positions,
// recovery durations, and on-disk footprints.
func (b *BPMS) ShardStats() []ShardStat {
	stats := b.Engine.Stats()
	out := make([]ShardStat, len(stats))
	for i, s := range stats {
		load, arm := b.Engine.Recovery(i)
		out[i] = ShardStat{
			Shard:           s.Shard,
			Instances:       s.Instances,
			Archived:        s.Archived,
			ReissueFailures: s.ReissueFailures,
			JournalLast:     b.state[i].LastIndex(),
			JournalSynced:   b.state[i].SyncedIndex(),
			LoadSeconds:     load.Seconds(),
			ArmSeconds:      arm.Seconds(),
			Degraded:        s.Degraded,
			DegradedReason:  s.DegradedReason,
		}
		if i < len(b.dirs) {
			out[i].DiskBytes = dirSize(filepath.Join(b.dirs[i], "state")) + dirSize(filepath.Join(b.dirs[i], "snapshots"))
		}
	}
	return out
}

// Ready reports whether the system can serve its full surface: every
// shard has finished boot replay (guaranteed once Open returns) and no
// shard has fail-stopped. /readyz gates on it.
func (b *BPMS) Ready() (bool, []int) {
	degraded := b.Engine.DegradedShards()
	return len(degraded) == 0, degraded
}

// FaultReport returns the injected-fault tally when the system was
// opened over a fault.Injector (bpmsd -fault); ok is false on the real
// filesystem.
func (b *BPMS) FaultReport() (fault.Report, bool) {
	if rep, ok := b.fs.(fault.Reporter); ok {
		return rep.FaultReport(), true
	}
	return fault.Report{}, false
}

// DeployFile loads a definition from a .json or .xml file, validates
// it, and deploys it through Deploy.
func (b *BPMS) DeployFile(path string) (*model.Process, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p *model.Process
	switch filepath.Ext(path) {
	case ".json":
		p, err = model.DecodeJSON(data)
	case ".xml", ".bpmn":
		p, err = model.DecodeXML(data)
	default:
		return nil, fmt.Errorf("core: unknown definition format %q", filepath.Ext(path))
	}
	if err != nil {
		return nil, err
	}
	if err := b.Deploy(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Log exports the audit trail as a mining log (one trace per case).
func (b *BPMS) Log() *history.Log {
	return history.FromEvents(b.History, false)
}

// AddUser registers a user in the organisational directory.
func (b *BPMS) AddUser(id string, roles ...string) {
	b.Directory.AddUser(&resource.User{ID: id, Roles: roles})
}

// Now returns the system clock time.
func (b *BPMS) Now() time.Time { return b.clock.Now() }
