// Package core assembles the BPMS subsystems — engine, worklist,
// organisational directory, timers, history, and storage — into one
// configurable system object, the way the classic BPMS reference
// architecture wires its components. It is the implementation behind
// the repository's public root package.
package core

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
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
	// snapshots under this directory. Empty runs fully in memory: engine
	// state records are numbered but not kept (nothing replays them),
	// and the audit trail is kept packed in RAM, where it answers every
	// history query as a data dir's journal would.
	DataDir string
	// Shards partitions process instances across this many independent
	// engine shards, each with its own WAL, snapshot store, and
	// group-commit batcher (default 1). With a DataDir and Shards > 1,
	// shard state lives in per-shard subdirectories (shard-0000/…); a
	// data dir must be reopened with the shard count it was created
	// with.
	Shards int
	// SyncPolicy applies to the file journals (ignored in memory).
	SyncPolicy storage.SyncPolicy
	// SyncInterval is the append count between fsyncs for SyncEvery
	// (default 256).
	SyncInterval int
	// BatchMaxDelay is the SyncBatch max-latency tick (default 2ms):
	// buffered records reach stable storage at least this often.
	BatchMaxDelay time.Duration
	// BatchMaxRecords bounds a SyncBatch group commit (default 1024).
	BatchMaxRecords int
	// Durable makes API-visible state transitions wait for the state
	// journal's durability acknowledgement before returning. Under
	// SyncBatch, concurrent transitions share one group-commit fsync,
	// so this costs one fsync per batch rather than per transition.
	Durable bool
	// SnapshotEvery writes a state snapshot after this many journal
	// appends (0 disables snapshots; requires DataDir).
	SnapshotEvery int
	// SnapshotInterval snapshots every shard whose journal advanced on
	// a wall-clock cadence, complementing the append-count trigger:
	// a shard trickling writes still gets its replay prefix bounded
	// (0 disables the scheduler; requires DataDir).
	SnapshotInterval time.Duration
	// SegmentSize caps each WAL segment file before rollover (default
	// 4MiB). Smaller segments tighten snapshot truncation granularity;
	// the crash-recovery gate uses tiny segments to observe it.
	SegmentSize int64
	// HistoryStripes partitions the audit/history store into this many
	// stripes (default 1), each with its own journal, committer, and
	// locks; events hash by instance ID. With a DataDir and more than
	// one stripe, history journals live under history/stripe-0000/…; a
	// data dir must be reopened with the stripe count it was created
	// with.
	HistoryStripes int
	// HistoryWindow bounds the number of audit events each history
	// stripe keeps resident in RAM (0 = unbounded), as their packed
	// journal records. Older events stay queryable through journal
	// replay.
	HistoryWindow int
	// WorklistStripes partitions the task service across this many
	// independently locked item stripes (default 1), each with its own
	// secondary indexes, so claims and completions on different items
	// proceed in parallel. The worklist is in-memory (work items are
	// reissued from the engine journals on recovery), so any stripe
	// count reopens any data dir.
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
	// TimerStripes shards the timing wheel across this many
	// independently locked wheels (default 8; 1 restores the single
	// global wheel). Timer IDs map to stripes by the same modulo
	// placement family the other striped subsystems use.
	TimerStripes int
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
	// AuditInterval starts the background SLA-audit sweeper on this
	// cadence (0 disables it). The sweeper walks the worklist
	// due-time heap and the timer wheel for deadline violations and
	// re-verifies deployed definitions' soundness on a slower cadence.
	AuditInterval time.Duration
	// TaskSLA applies a default due time to work items created
	// without an explicit deadline, so the audit sweep covers every
	// open item (0 = only explicit dueIn deadlines are audited).
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
	// Tasks is the worklist service (shared across shards).
	Tasks *task.Service
	// Directory is the organisational model.
	Directory *resource.Directory
	// History is the audit store (shared across shards).
	History *history.Store
	// Timers is the deadline service.
	Timers timer.Service
	// Metrics is the observability registry (nil when the system runs
	// uninstrumented).
	Metrics *obs.Metrics
	// Auditor is the background SLA sweeper (nil when disabled).
	Auditor *obs.Auditor
	// Upgrade is what Open's one-shot rewrite of a data dir in an older
	// format did (zero when there was nothing to rewrite).
	Upgrade UpgradeReport

	clock    timer.Clock
	runner   *timer.Runner
	state    []storage.Journal // one per shard
	dirs     []string          // per-shard data dirs (empty in memory)
	fs       fault.FS          // filesystem behind the journals/snapshots
	snapStop chan struct{}     // stops the time-based snapshot scheduler
	snapWG   sync.WaitGroup
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

// checkPartitionLayout rejects reopening partitioned on-disk state
// under a different partition count: data would silently vanish from
// queries (or new partitions would start empty) because the layout no
// longer matches the journals on disk. scanDir holds the partition
// subdirectories (<prefix>NNNN), legacy reports whether the
// unpartitioned layout is present, and noun/action name the subsystem
// in errors ("shard"/"resharding", "history stripe"/"re-striping").
func checkPartitionLayout(dataDir, scanDir, prefix string, want int, legacy bool, noun, action string) error {
	existing := 0
	if entries, err := os.ReadDir(scanDir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() && len(name) == len(prefix)+4 && strings.HasPrefix(name, prefix) {
				if _, err := strconv.Atoi(name[len(prefix):]); err == nil {
					existing++
				}
			}
		}
	}
	if want <= 1 {
		if existing > 0 {
			return fmt.Errorf("core: data dir %s holds %d-%s state; reopen it with the %s count it was created with", dataDir, existing, noun, noun)
		}
		return nil
	}
	if legacy {
		return fmt.Errorf("core: data dir %s holds single-%s state; %s an existing data dir is not supported", dataDir, noun, action)
	}
	if existing > 0 && existing != want {
		return fmt.Errorf("core: data dir %s was created with %d %ss, not %d; reopen it with the %s count it was created with", dataDir, existing, noun, want, noun)
	}
	return nil
}

// checkShardLayout guards the engine-shard layout (shard-NNNN dirs vs
// the legacy state/ dir directly under DataDir).
func checkShardLayout(dataDir string, shards int) error {
	legacy := false
	if _, err := os.Stat(filepath.Join(dataDir, "state")); err == nil {
		legacy = true
	}
	return checkPartitionLayout(dataDir, dataDir, "shard-", shards, legacy, "shard", "resharding")
}

// historyDir returns the on-disk home of one history stripe's journal.
// A single stripe keeps the pre-striping layout (history/ directly
// under DataDir) so existing data dirs reopen unchanged.
func historyDir(dataDir string, stripes, i int) string {
	if stripes <= 1 {
		return filepath.Join(dataDir, "history")
	}
	return filepath.Join(dataDir, "history", fmt.Sprintf("stripe-%04d", i))
}

// checkHistoryLayout guards the history-stripe layout (stripe-NNNN
// dirs vs legacy wal files directly under history/): stripes hash
// events by instance ID, so a different count would scatter an
// instance's history across journals that no longer match the layout.
func checkHistoryLayout(dataDir string, stripes int) error {
	histDir := filepath.Join(dataDir, "history")
	legacy := false
	if entries, err := os.ReadDir(histDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") {
				legacy = true
			}
		}
	}
	return checkPartitionLayout(dataDir, histDir, "stripe-", stripes, legacy, "history stripe", "re-striping")
}

// Open assembles and (when DataDir is set) recovers a BPMS. The
// journals open in sequence; then the shards recover concurrently, each
// reading its own snapshot and WAL serially.
func Open(opts Options) (*BPMS, error) {
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
	histStripes := opts.HistoryStripes
	if histStripes <= 0 {
		histStripes = 1
	}

	stateJournals := make([]storage.Journal, shards)
	snaps := make([]*storage.SnapshotStore, shards)
	histJournals := make([]storage.Journal, histStripes)
	var upgrade UpgradeReport
	closeAll := func() {
		for _, j := range stateJournals {
			if j != nil {
				j.Close()
			}
		}
		for _, j := range histJournals {
			if j != nil {
				j.Close()
			}
		}
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: create data dir: %w", err)
		}
		if err := checkShardLayout(opts.DataDir, shards); err != nil {
			return nil, err
		}
		if err := checkHistoryLayout(opts.DataDir, histStripes); err != nil {
			return nil, err
		}
		var err error
		if upgrade, err = upgradeDataDir(opts.FS, opts.DataDir, shards, histStripes); err != nil {
			return nil, err
		}
		jopts := storage.Options{
			SegmentSize:     opts.SegmentSize,
			Policy:          opts.SyncPolicy,
			SyncInterval:    opts.SyncInterval,
			BatchMaxDelay:   opts.BatchMaxDelay,
			BatchMaxRecords: opts.BatchMaxRecords,
			FS:              opts.FS,
		}
		for i := 0; i < shards; i++ {
			dir := shardDir(opts.DataDir, shards, i)
			jo := jopts
			jo.Metrics = opts.Metrics.WAL(fmt.Sprintf("state-%d", i))
			sj, err := storage.OpenFileJournal(filepath.Join(dir, "state"), jo)
			if err != nil {
				closeAll()
				return nil, err
			}
			stateJournals[i] = sj
			sn, err := storage.OpenSnapshotStoreFS(filepath.Join(dir, "snapshots"), 2, opts.FS)
			if err != nil {
				closeAll()
				return nil, err
			}
			snaps[i] = sn
		}
		for i := 0; i < histStripes; i++ {
			jo := jopts
			jo.Metrics = opts.Metrics.WAL(fmt.Sprintf("history-%d", i))
			hj, err := storage.OpenFileJournal(historyDir(opts.DataDir, histStripes, i), jo)
			if err != nil {
				closeAll()
				return nil, err
			}
			histJournals[i] = hj
		}
	} else {
		// Nothing reads a state journal after open unless a snapshot
		// store exists, and in memory none does: keep only the count.
		for i := range stateJournals {
			stateJournals[i] = storage.NewDiscardJournal()
		}
		for i := range histJournals {
			histJournals[i] = storage.NewMemJournal()
		}
	}

	hist, err := history.NewStriped(histJournals, history.StoreOptions{
		Window:  opts.HistoryWindow,
		Metrics: opts.Metrics,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	// Past this point the store owns the history journals: failures
	// must stop its committer goroutines and close the journals
	// through it, not out from under it.
	closeAll = func() {
		for _, j := range stateJournals {
			if j != nil {
				j.Close()
			}
		}
		hist.Close()
	}
	dir := resource.NewDirectory()
	for i := range opts.Users {
		dir.AddUser(&opts.Users[i])
	}
	tasks := task.NewService(task.Config{
		Directory:    dir,
		Policy:       opts.Policy,
		AutoAllocate: opts.AutoAllocate,
		Now:          opts.Clock.Now,
		Stripes:      opts.WorklistStripes,
		DefaultSLA:   opts.TaskSLA,
		Metrics:      opts.Metrics.Tasks(),
	})
	var wheel timer.Service
	if opts.TimerStripes == 1 {
		wheel = timer.NewWheelService(opts.TimerTick, 512)
	} else {
		wheel = timer.NewStripedWheel(opts.TimerStripes, opts.TimerTick, 512)
	}
	if opts.Metrics != nil {
		if fl, ok := wheel.(timer.FireLagObserver); ok {
			fl.SetFireLag(opts.Metrics.Timers().FireLag)
		}
	}
	onDegrade := opts.OnDegrade
	engineBegan := time.Now()
	router, err := shard.New(shard.Config{
		Journals:      stateJournals,
		Snapshots:     snaps,
		SnapshotEvery: opts.SnapshotEvery,
		Durable:       opts.Durable,
		Tasks:         tasks,
		Timers:        wheel,
		Clock:         opts.Clock,
		History:       hist,
		Metrics:       opts.Metrics,
		OnDegrade: func(i int, reason string) {
			log.Printf("core: shard %d fail-stopped (read-only degraded mode): %s", i, reason)
			if onDegrade != nil {
				onDegrade(i, reason)
			}
		},
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	engineRecovery := time.Since(engineBegan)
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
	}
	if opts.Metrics != nil {
		opts.Metrics.Recovery("history").SetFloat(hist.Stats().RecoverySeconds)
		opts.Metrics.Recovery("engine").SetFloat(engineRecovery.Seconds())
		b.registerSamplers(opts.Metrics)
		// Decision tables are compiled ad hoc (script tasks, API
		// callers), not owned by core, so their instruments attach
		// through the package-level hook.
		rules.SetMetrics(opts.Metrics)
	}
	if opts.AuditInterval > 0 {
		b.Auditor = obs.NewAuditor(b.auditorConfig(opts))
		b.Auditor.Start()
	}
	if opts.RunTimers {
		b.runner = timer.NewRunner(wheel, opts.Clock, opts.TimerTick)
		b.runner.Start()
	}
	if opts.SnapshotInterval > 0 && opts.DataDir != "" {
		b.snapStop = make(chan struct{})
		b.snapWG.Add(1)
		go func() {
			defer b.snapWG.Done()
			t := time.NewTicker(opts.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-b.snapStop:
					return
				case <-t.C:
					// Shards whose journal is idle or already
					// snapshotting skip the tick.
					b.Engine.TrySnapshot()
				}
			}
		}()
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

// auditorConfig adapts the worklist due-time heap, the timer wheel,
// the verifier, and the history pipeline into the obs.Auditor's sweep
// closures.
func (b *BPMS) auditorConfig(opts Options) obs.AuditorConfig {
	return obs.AuditorConfig{
		Interval: opts.AuditInterval,
		Now:      opts.Clock.Now,
		Metrics:  opts.Metrics,
		Overdue: func(now time.Time) []obs.Violation {
			items := b.Tasks.Overdue(now)
			out := make([]obs.Violation, 0, len(items))
			for _, it := range items {
				out = append(out, obs.Violation{
					Kind:       obs.KindTaskOverdue,
					ID:         it.ID,
					InstanceID: it.InstanceID,
					ProcessID:  it.ProcessID,
					Detail: fmt.Sprintf("work item %s (%s, state %s) open past its due time %s",
						it.ID, it.Name, it.State, it.DueAt.Format(time.RFC3339)),
					Since: it.DueAt,
				})
			}
			return out
		},
		TimerLag: func(horizon time.Time) []obs.Violation {
			rep, ok := b.Timers.(timer.OverdueReporter)
			if !ok {
				return nil
			}
			lagging := rep.Overdue(horizon)
			out := make([]obs.Violation, 0, len(lagging))
			for _, o := range lagging {
				out = append(out, obs.Violation{
					Kind:   obs.KindTimerLag,
					ID:     fmt.Sprintf("timer-%d", o.ID),
					Detail: fmt.Sprintf("timer %d still pending past %s", o.ID, o.At.Format(time.RFC3339)),
					Since:  o.At,
				})
			}
			return out
		},
		CheckDefinitions: func() []obs.Violation {
			var out []obs.Violation
			for _, id := range b.Engine.Definitions() {
				p, ok := b.Engine.Definition(id)
				if !ok {
					continue
				}
				res, err := verify.Check(p, verify.Options{MaxStates: 50000, UseReduction: true})
				now := b.clock.Now()
				switch {
				case err != nil:
					out = append(out, obs.Violation{
						Kind: obs.KindDefinitionUnsound, ID: id, ProcessID: id,
						Detail: fmt.Sprintf("soundness re-verification failed: %v", err),
						Since:  now,
					})
				case !res.Sound:
					detail := "definition is not sound"
					if len(res.Violations) > 0 {
						detail = res.Violations[0]
					}
					out = append(out, obs.Violation{
						Kind: obs.KindDefinitionUnsound, ID: id, ProcessID: id,
						Detail: detail, Since: now,
					})
				}
			}
			return out
		},
		Emit: func(v obs.Violation) {
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
			if v.Kind == obs.KindTaskOverdue {
				ev.TaskID = v.ID
			}
			b.History.Enqueue(ev)
		},
	}
}

// Close stops the auditor and timer runner, drains the history
// pipeline, and syncs/closes every journal (all shard WALs plus the
// history stripe journals). Under SyncBatch journals this drains
// in-flight commit batches: every acknowledged append is on stable
// storage when Close returns.
func (b *BPMS) Close() error {
	if b.Auditor != nil {
		b.Auditor.Stop()
	}
	if b.snapStop != nil {
		close(b.snapStop)
		b.snapWG.Wait()
		b.snapStop = nil
	}
	if b.runner != nil {
		b.runner.Stop()
	}
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
// closing them). The history store drains its async pipeline first,
// so every audit event enqueued before the call is durable on return.
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
	// RecoverySeconds is how long this shard's boot-time recovery
	// (snapshot load + journal replay) took; 0 when it started fresh.
	RecoverySeconds float64 `json:"recoverySeconds"`
	// DiskBytes is the shard's on-disk footprint (WAL segments plus
	// snapshots); 0 when running in memory.
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
		out[i] = ShardStat{
			Shard:           s.Shard,
			Instances:       s.Instances,
			Archived:        s.Archived,
			ReissueFailures: s.ReissueFailures,
			JournalLast:     b.state[i].LastIndex(),
			JournalSynced:   b.state[i].SyncedIndex(),
			RecoverySeconds: b.Engine.RecoveryDuration(i).Seconds(),
			Degraded:        s.Degraded,
			DegradedReason:  s.DegradedReason,
		}
		if i < len(b.dirs) {
			out[i].DiskBytes = dirSize(b.dirs[i])
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
// it, and deploys it.
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
	if err := b.Engine.Deploy(p); err != nil {
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
