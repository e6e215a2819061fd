// bpmsd is the BPMS server daemon: it assembles a (persistent or
// in-memory) BPMS and serves the HTTP API.
//
// Usage:
//
//	bpmsd -addr :8080 -data ./data -shards 4 -user alice=clerk,manager
//
// With -shards N the runtime partitions process instances across N
// independent engine shards — each with its own WAL (under
// shard-0000/… subdirectories of the data dir), snapshot store,
// group-commit batcher and history journal (under history/stripe-0000/…)
// — multiplying durable throughput on multi-core boxes. The shard count
// is the only partition count: a data dir must be reopened with the
// shard count it was created with.
//
// With -data every journal group-commits (README "Durability"): an
// API-visible state transition returns only after the fsync of its
// batch, so a SIGKILL after a response never loses the acknowledged
// state, and buffered history records are fsynced within
// -sync-interval. Without -data nothing is journaled to disk. On
// SIGINT/SIGTERM the daemon drains in-flight HTTP requests and commit
// batches, syncs the WAL, and closes cleanly.
//
// A data dir in an older record format is rewritten once when it opens
// (README "Data dir format"), and a boot line counts the files and
// records rewritten; one written by a newer build is refused.
//
// The audit trail is recorded on the goroutine that makes each
// transition, in one history journal per shard: events hash by instance
// ID exactly as the shards do. -history-window bounds the events each
// shard's journal keeps resident in RAM (older events are served by
// journal replay). The history journals group-commit like the state
// journals but acknowledge nothing; on shutdown they are synced and
// closed.
//
// The human-task worklist is one in-memory store with per-user and
// per-state indexes, whatever the shard count; due times fire on the
// engine's timer wheel. Work items are reissued from the engine journals
// on recovery.
//
// -sync, -sync-every, -durable, -history-stripes, -worklist-stripes,
// -recovery-workers, -timer-stripes and -audit-interval are accepted
// and ignored; a value other than the default prints one "ignored" line
// at boot.
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
	syncMode := flag.String("sync", "batch", "ignored: a data dir always group-commits")
	syncEvery := flag.Int("sync-every", 256, "ignored: a data dir always group-commits")
	syncInterval := flag.Duration("sync-interval", 2*time.Millisecond, "max delay before buffered appends are fsynced by the group commit")
	snapshotEvery := flag.Int("snapshot-every", 1000, "journal appends between snapshots (0 = never)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "wall-clock snapshot cadence for shards whose journal advanced (0 = append-count trigger only)")
	segmentSize := flag.Int64("wal-segment-size", 0, "max bytes per WAL segment file before rollover (0 = default 4MiB)")
	recoveryWorkers := flag.Int("recovery-workers", 0, "ignored: recovery reads each shard's snapshot and WAL serially")
	timerStripes := flag.Int("timer-stripes", 0, "ignored: the timer service is one timing wheel")
	historyStripes := flag.Int("history-stripes", 1, "ignored: the history has one journal per shard")
	historyWindow := flag.Int("history-window", 100000, "audit events each shard's history journal keeps resident in RAM, as packed records (about 65 B of heap per pipeline event); 0 = unbounded; older events are served from the journal")
	worklistStripes := flag.Int("worklist-stripes", 1, "ignored: the worklist is one store")
	autoAllocate := flag.Bool("auto-allocate", false, "push tasks to users instead of offering")
	metrics := flag.Bool("metrics", false, "instrument hot paths and serve Prometheus text format at GET /metrics")
	auditInterval := flag.Duration("audit-interval", 0, "ignored: deadlines fire on the timer wheel and deploy checks soundness")
	taskSLA := flag.Duration("task-sla", 0, "default due time for work items created without a deadline; an item still open at its due time is reported once at /api/v1/violations, in /metrics and in the audit trail (0 = explicit deadlines only)")
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
	durable := flag.Bool("durable", true, "ignored: with -data every state transition waits for its group commit")
	flag.Parse()

	if *recoveryWorkers != 0 {
		fmt.Printf("bpmsd: -recovery-workers %d ignored: recovery is serial per shard\n", *recoveryWorkers)
	}
	if *timerStripes != 0 {
		fmt.Printf("bpmsd: -timer-stripes %d ignored: the timer service is one timing wheel\n", *timerStripes)
	}
	if *historyStripes != 1 {
		fmt.Printf("bpmsd: -history-stripes %d ignored: the history has one journal per shard\n", *historyStripes)
	}
	if *worklistStripes != 1 {
		fmt.Printf("bpmsd: -worklist-stripes %d ignored: the worklist is one store\n", *worklistStripes)
	}
	if *auditInterval != 0 {
		fmt.Printf("bpmsd: -audit-interval %s ignored: deadlines fire on the timer wheel\n", *auditInterval)
	}
	if *syncMode != "batch" {
		fmt.Printf("bpmsd: -sync %s ignored: a data dir always group-commits\n", *syncMode)
	}
	if *syncEvery != 256 {
		fmt.Printf("bpmsd: -sync-every %d ignored: a data dir always group-commits\n", *syncEvery)
	}
	if !*durable {
		fmt.Println("bpmsd: -durable=false ignored: every state transition waits for its group commit")
	}
	opts := bpms.Options{
		DataDir:       *data,
		Shards:        *shards,
		BatchMaxDelay: *syncInterval,
		SegmentSize:   *segmentSize,
		HistoryWindow: *historyWindow,
		AutoAllocate:  *autoAllocate,
		TaskSLA:       *taskSLA,
		RunTimers:     true,
		Users:         users,
	}
	if *metrics {
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
	began := time.Now()
	sys, err := bpms.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	opened := time.Since(began)

	// Effective configuration, then recovery summary.
	if *data == "" {
		fmt.Println("bpmsd: in-memory (no data dir, nothing journaled to disk)")
	} else {
		fmt.Printf("bpmsd: data dir %s, sync=batch interval=%s, shards=%d, history-journals=%d, history-window=%d\n",
			*data, *syncInterval, sys.Engine.Shards(), sys.History.Stripes(), *historyWindow)
	}
	if u := sys.Upgrade; u.Files > 0 {
		fmt.Printf("bpmsd: data dir upgraded in %.3fs (%d file(s) rewritten, %d record(s) transcoded)\n",
			u.Took.Seconds(), u.Files, u.Records)
	}
	if opts.Metrics != nil {
		fmt.Println("bpmsd: metrics on (GET /metrics)")
	}
	if *taskSLA > 0 {
		fmt.Printf("bpmsd: task-sla=%s for work items without a dueIn\n", *taskSLA)
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
		fmt.Printf("bpmsd: history replayed in %.3fs, %d stripe(s) at once (%d events, %d resident in %d B; %d segment(s) from .idx, %d scanned, %d .idx fallback(s))\n",
			hs.RecoverySeconds, hs.Stripes, hs.RecoveredEvents, hs.Resident, hs.ResidentBytes,
			hs.IndexedSegments, hs.ScannedSegments, hs.IndexFallbacks)
		var load, arm float64
		for _, st := range sys.ShardStats() {
			fmt.Printf("bpmsd: shard %d loaded in %.3fs, armed in %.3fs (%d instance(s), journal index %d, %d byte(s) on disk)\n",
				st.Shard, st.LoadSeconds, st.ArmSeconds, st.Instances, st.JournalLast, st.DiskBytes)
			load, arm = max(load, st.LoadSeconds), max(arm, st.ArmSeconds)
		}
		// The shards load beside the history replay and arm after both.
		fmt.Printf("bpmsd: opened in %.3fs (history %.3fs beside shard load %.3fs, then arm %.3fs)\n",
			opened.Seconds(), hs.RecoverySeconds, load, arm)
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
