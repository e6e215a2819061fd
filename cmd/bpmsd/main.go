// bpmsd is the BPMS server daemon: it assembles a (persistent or
// in-memory) BPMS and serves the HTTP API.
//
// Usage:
//
//	bpmsd -addr :8080 -data ./data -sync batch -shards 4 -user alice=clerk,manager
//
// With -shards N the runtime partitions process instances across N
// independent engine shards — each with its own WAL (under
// shard-0000/… subdirectories of the data dir), snapshot store, and
// group-commit batcher — multiplying durable throughput on multi-core
// boxes. A data dir must be reopened with the shard count it was
// created with.
//
// Durability is controlled by -sync (never|always|every|batch; see the
// README's Durability section), -sync-every (append count for the
// every policy), and -sync-interval (max fsync latency for the batch
// policy). With -durable (default on for any policy except never),
// API-visible state transitions wait for the WAL commit
// acknowledgement, so a SIGKILL after a response never loses the
// acknowledged state. On SIGINT/SIGTERM the daemon drains in-flight
// HTTP requests and commit batches, syncs the WAL, and closes cleanly.
//
// A data dir in an older record format is rewritten once when it opens
// (README "Data dir format"), and a boot line counts the files and
// records rewritten; one written by a newer build is refused.
//
// The audit trail is recorded through an asynchronous striped history
// pipeline: -history-stripes partitions audit events by instance ID
// across independent journals and committers, and -history-window
// bounds the events each stripe keeps resident in RAM (older events
// are served by journal replay). On shutdown the pipeline is drained,
// so every enqueued audit event reaches its journal.
//
// The human-task worklist is likewise lock-striped: -worklist-stripes N
// partitions work items across N independently locked stripes with
// per-user, per-state, and due-time indexes (experiment T13). The
// worklist is in-memory — work items are reissued from the engine
// journals on recovery — so the flag composes freely with any data dir.
//
// Definitions are deployed and instances driven through the REST API
// (see internal/api); bpmsctl is the companion client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bpms"
	"bpms/internal/api"
	"bpms/internal/fault"
	"bpms/internal/obs"
	"bpms/internal/resource"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "data directory (empty = in-memory)")
	shards := flag.Int("shards", 1, "engine shards, each with its own WAL/snapshot/commit pipeline (data dirs must be reopened with the shard count they were created with)")
	syncMode := flag.String("sync", "batch", "WAL sync policy: never|always|every|batch")
	syncEvery := flag.Int("sync-every", 256, "appends between fsyncs (every policy)")
	syncInterval := flag.Duration("sync-interval", 2*time.Millisecond, "max delay before batched appends are fsynced (batch policy)")
	snapshotEvery := flag.Int("snapshot-every", 1000, "journal appends between snapshots (0 = never)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "wall-clock snapshot cadence for shards whose journal advanced (0 = append-count trigger only)")
	segmentSize := flag.Int64("wal-segment-size", 0, "max bytes per WAL segment file before rollover (0 = default 4MiB)")
	recoveryWorkers := flag.Int("recovery-workers", 0, "ignored: recovery reads each shard's snapshot and WAL serially")
	timerStripes := flag.Int("timer-stripes", 0, "independently locked timing-wheel stripes (0 = default 8, 1 = single wheel)")
	historyStripes := flag.Int("history-stripes", 1, "history store stripes, each with its own journal and commit pipeline (data dirs must be reopened with the stripe count they were created with)")
	historyWindow := flag.Int("history-window", 100000, "audit events each history stripe keeps resident in RAM, as packed records (about 85 B of heap per pipeline event); 0 = unbounded; older events are served from the journal")
	worklistStripes := flag.Int("worklist-stripes", 1, "worklist lock stripes, each with its own item map and secondary indexes (in-memory; any value reopens any data dir)")
	autoAllocate := flag.Bool("auto-allocate", false, "push tasks to users instead of offering")
	metrics := flag.Bool("metrics", false, "instrument hot paths and serve Prometheus text format at GET /metrics")
	auditInterval := flag.Duration("audit-interval", 0, "SLA-audit sweep cadence (0 = sweeper off); violations surface at /metrics, /api/v1/violations, and in the audit trail")
	taskSLA := flag.Duration("task-sla", 0, "default due time applied to work items created without a deadline, so the audit sweep covers every open item (0 = explicit deadlines only)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	httpReadTimeout := flag.Duration("http-read-timeout", 0, "max time to read a full request including body (0 = 30s default)")
	httpWriteTimeout := flag.Duration("http-write-timeout", 0, "max time to write a full response (0 = 5m default, sized for XES exports)")
	maxReads := flag.Int("max-inflight-reads", 0, "admission control: concurrent GET requests executing (0 = unlimited)")
	maxWrites := flag.Int("max-inflight-writes", 0, "admission control: concurrent non-GET requests executing (0 = unlimited)")
	admissionQueue := flag.Int("admission-queue", 0, "admission control: requests per class allowed to wait for a slot before new arrivals are shed with 429 (0 = default 64)")
	admissionTimeout := flag.Duration("admission-timeout", 0, "admission control: max wait for an execution slot before a queued request is shed with 503 (0 = default 1s)")
	faultSpec := flag.String("fault", "", "inject storage faults for chaos testing, e.g. 'path=shard-0000;fsync-at=100' (keys: path, fsync-at, fsync-prob, seed, enospc-after, drop-after, write-latency, fsync-latency)")
	var users []resource.User
	flag.Func("user", "user spec id=role1,role2 (repeatable)", func(s string) error {
		id, roles, ok := strings.Cut(s, "=")
		if !ok || id == "" {
			return fmt.Errorf("want id=role1,role2, got %q", s)
		}
		u := resource.User{ID: id}
		if roles != "" {
			u.Roles = strings.Split(roles, ",")
		}
		users = append(users, u)
		return nil
	})
	durable := flag.Bool("durable", true, "state transitions wait for the WAL commit ack (forced off with -sync never)")
	flag.Parse()

	if *recoveryWorkers != 0 {
		fmt.Printf("bpmsd: -recovery-workers %d ignored: recovery is serial per shard\n", *recoveryWorkers)
	}
	policy, err := bpms.ParseSyncPolicy(*syncMode)
	if err != nil {
		log.Fatal(err)
	}
	opts := bpms.Options{
		DataDir:         *data,
		Shards:          *shards,
		SyncPolicy:      policy,
		SyncInterval:    *syncEvery,
		BatchMaxDelay:   *syncInterval,
		Durable:         *durable && policy != bpms.SyncNever,
		SegmentSize:     *segmentSize,
		HistoryStripes:  *historyStripes,
		HistoryWindow:   *historyWindow,
		WorklistStripes: *worklistStripes,
		TimerStripes:    *timerStripes,
		AutoAllocate:    *autoAllocate,
		AuditInterval:   *auditInterval,
		TaskSLA:         *taskSLA,
		RunTimers:       true,
		Users:           users,
	}
	if *metrics || *auditInterval > 0 {
		// The audit sweeper exports its counters through the same
		// registry, so enabling it implies the instrumentation layer.
		opts.Metrics = obs.New()
	}
	if *data != "" {
		opts.SnapshotEvery = *snapshotEvery
		opts.SnapshotInterval = *snapshotInterval
	}
	if *faultSpec != "" {
		if *data == "" {
			log.Fatal("bpmsd: -fault requires -data (faults are injected under the storage layer)")
		}
		plan, err := fault.ParsePlan(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		opts.FS = fault.NewInjector(fault.OS, plan)
		fmt.Printf("bpmsd: fault injection armed: %s\n", *faultSpec)
	}
	sys, err := bpms.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Effective configuration, then recovery summary.
	if *data == "" {
		fmt.Println("bpmsd: in-memory (no data dir; -sync has no effect)")
	} else {
		fmt.Printf("bpmsd: data dir %s, sync=%s", *data, policy)
		switch policy {
		case bpms.SyncEvery:
			fmt.Printf(" every=%d", *syncEvery)
		case bpms.SyncBatch:
			fmt.Printf(" interval=%s", *syncInterval)
		}
		fmt.Printf(", durable=%v, shards=%d, history-stripes=%d, history-window=%d, worklist-stripes=%d\n",
			opts.Durable, sys.Engine.Shards(), *historyStripes, *historyWindow, sys.Tasks.Stripes())
	}
	if u := sys.Upgrade; u.Files > 0 {
		fmt.Printf("bpmsd: data dir upgraded in %.3fs (%d file(s) rewritten, %d record(s) transcoded)\n",
			u.Took.Seconds(), u.Files, u.Records)
	}
	if opts.Metrics != nil {
		fmt.Printf("bpmsd: metrics on (GET /metrics), audit-interval=%s, task-sla=%s\n", *auditInterval, *taskSLA)
	}
	// Sum the per-shard counts: Instances() would copy and sort every ID
	// on the way to the listener.
	recovered := 0
	for _, st := range sys.Engine.Stats() {
		recovered += st.Instances
	}
	fmt.Printf("bpmsd: %d definition(s), %d instance(s) recovered across %d shard(s), %d user(s)\n",
		len(sys.Engine.Definitions()), recovered, sys.Engine.Shards(), sys.Directory.Count())
	if *data != "" {
		hs := sys.History.Stats()
		fmt.Printf("bpmsd: history replayed in %.3fs (%d events, %d resident in %d B)\n",
			hs.RecoverySeconds, hs.RecoveredEvents, hs.Resident, hs.ResidentBytes)
		for _, st := range sys.ShardStats() {
			fmt.Printf("bpmsd: shard %d replayed in %.3fs (%d instance(s), journal index %d, %d byte(s) on disk)\n",
				st.Shard, st.RecoverySeconds, st.Instances, st.JournalLast, st.DiskBytes)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	apiOpts := []api.Option{api.WithHTTPTimeouts(*httpReadTimeout, *httpWriteTimeout)}
	if *maxReads > 0 || *maxWrites > 0 {
		apiOpts = append(apiOpts, api.WithAdmission(api.AdmissionConfig{
			MaxInFlightRead:  *maxReads,
			MaxInFlightWrite: *maxWrites,
			QueueDepth:       *admissionQueue,
			QueueTimeout:     *admissionTimeout,
		}))
		fmt.Printf("bpmsd: admission control on: reads=%d writes=%d queue=%d\n",
			*maxReads, *maxWrites, *admissionQueue)
	}
	srv := api.New(sys, apiOpts...)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	select {
	case err := <-errc:
		// Listener failed before any signal: nothing to drain.
		sys.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		fmt.Println("bpmsd: shutdown signal received, draining")
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(shCtx); err != nil {
			fmt.Fprintf(os.Stderr, "bpmsd: drain: %v\n", err)
		}
		cancel()
		active := 0
		for _, s := range sys.Engine.Summaries() {
			if s.Status == bpms.StatusActive {
				active++
			}
		}
		if err := sys.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bpmsd: close: %v\n", err)
			os.Exit(1)
		}
		last, synced := sys.JournalIndexes()
		fmt.Printf("bpmsd: shutdown complete: %d active instance(s) drained, journal index %d, last synced %d\n",
			active, last, synced)
	}
}
