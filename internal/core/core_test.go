package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/history/historytest"
	"bpms/internal/model"
	"bpms/internal/obs"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

func TestOpenInMemory(t *testing.T) {
	b, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.AddUser("alice", "clerk")
	b.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	if err := b.Engine.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	v, err := b.Engine.StartInstance("seq-3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != engine.StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	if b.History.Count() == 0 {
		t.Error("no audit events")
	}
	if l := b.Log(); len(l.Traces) != 1 {
		t.Errorf("log traces = %d", len(l.Traces))
	}
}

func TestOpenPersistentAndReopen(t *testing.T) {
	dir := t.TempDir()
	clock := timer.NewVirtualClock(time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	b, err := Open(Options{DataDir: dir, Clock: clock, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	b.AddUser("alice", "clerk")
	p := model.New("held").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := b.Engine.StartInstance("held", map[string]any{"k": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := Open(Options{DataDir: dir, Clock: clock,
		Users: []resource.User{{ID: "alice", Roles: []string{"clerk"}}}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b2.Close()
	got, err := b2.Engine.Instance(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != engine.StatusActive {
		t.Fatalf("recovered status = %s", got.Status)
	}
	// History survived too.
	if b2.History.Count() == 0 {
		t.Error("history lost on reopen")
	}
	// Work item was re-issued; completing it finishes the instance.
	items := b2.Tasks.OfferedItems("alice")
	if len(items) != 1 {
		t.Fatalf("offered after recovery = %d", len(items))
	}
	b2.Tasks.Claim(items[0].ID, "alice")
	b2.Tasks.Start(items[0].ID, "alice")
	b2.Tasks.Complete(items[0].ID, "alice", nil)
	got, _ = b2.Engine.Instance(v.ID)
	if got.Status != engine.StatusCompleted {
		t.Fatalf("status after resume = %s", got.Status)
	}
}

// TestDataDirAcknowledgesEveryTransition: a data dir needs no sync
// setting to be durable. Once StartInstance returns, the state
// journal's synced index has caught up with its last index, without a
// Sync or Close.
func TestDataDirAcknowledgesEveryTransition(t *testing.T) {
	b, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Engine.Deploy(model.Sequence(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Engine.StartInstance("seq-1", nil); err != nil {
			t.Fatal(err)
		}
		if last, synced := b.JournalIndexes(); last == 0 || synced != last {
			t.Fatalf("after start %d: journal last %d, synced %d, want equal", i, last, synced)
		}
	}
}

// TestDurableBatchRecoveryWithoutClose is the group-commit durability
// contract at the system level: every state transition that returned
// survives a crash — simulated by reopening the data dir WITHOUT closing the
// first system (Close would flush everything and mask the guarantee).
func TestDurableBatchRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{
		DataDir: dir,
		Users:   []resource.User{{ID: "alice", Roles: []string{"clerk"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := model.New("durable-held").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := b.Engine.StartInstance("durable-held", map[string]any{"i": i})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()

	// Crash: no Close. The acked transitions must all be on disk.
	b2, err := Open(Options{DataDir: dir,
		Users: []resource.User{{ID: "alice", Roles: []string{"clerk"}}}})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer b2.Close()
	for _, id := range ids {
		got, err := b2.Engine.Instance(id)
		if err != nil {
			t.Fatalf("acked instance %s lost: %v", id, err)
		}
		if got.Status != engine.StatusActive {
			t.Fatalf("instance %s recovered as %s", id, got.Status)
		}
	}
}

func TestDeployFile(t *testing.T) {
	b, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dir := t.TempDir()

	p := model.Sequence(2)
	jsonData, _ := model.EncodeJSON(p)
	jsonPath := filepath.Join(dir, "proc.json")
	os.WriteFile(jsonPath, jsonData, 0o644)
	if _, err := b.DeployFile(jsonPath); err != nil {
		t.Fatalf("deploy json: %v", err)
	}

	xmlData, _ := model.EncodeXML(model.Mixed())
	xmlPath := filepath.Join(dir, "proc.xml")
	os.WriteFile(xmlPath, xmlData, 0o644)
	if _, err := b.DeployFile(xmlPath); err != nil {
		t.Fatalf("deploy xml: %v", err)
	}

	if got := len(b.Engine.Definitions()); got != 2 {
		t.Errorf("definitions = %d", got)
	}

	if _, err := b.DeployFile(filepath.Join(dir, "nope.yaml")); err == nil {
		t.Error("unknown extension should fail")
	}
	if _, err := b.DeployFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"id":""}`), 0o644)
	if _, err := b.DeployFile(bad); err == nil {
		t.Error("invalid definition should fail")
	}
}

func TestTimerRunnerIntegration(t *testing.T) {
	b, err := Open(Options{RunTimers: true, TimerTick: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p := model.New("quickTimer").
		Start("s").TimerCatch("wait", "20ms").End("e").
		Seq("s", "wait", "e").MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := b.Engine.StartInstance("quickTimer", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		got, _ := b.Engine.Instance(v.ID)
		if got.Status == engine.StatusCompleted {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timer never fired under the background runner")
}

// TestShardedOpenReopen exercises the per-shard data layout: instances
// started on a 4-shard system land in shard-0000…shard-0003 WALs and
// all recover (in parallel) on reopen with the same shard count.
func TestShardedOpenReopen(t *testing.T) {
	dir := t.TempDir()
	users := []resource.User{{ID: "alice", Roles: []string{"clerk"}}}
	b, err := Open(Options{DataDir: dir, Shards: 4, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	p := model.New("held").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	const n = 10
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := b.Engine.StartInstance("held", map[string]any{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if got := len(b.ShardStats()); got != 4 {
		t.Fatalf("shard stats = %d entries", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%04d", i), "state")); err != nil {
			t.Fatalf("missing shard %d state dir: %v", i, err)
		}
	}

	// Reopening with a different shard count — fewer OR more — is
	// refused outright.
	if _, err := Open(Options{DataDir: dir, Users: users}); err == nil {
		t.Fatal("reopen with 1 shard should fail on a 4-shard data dir")
	}
	if _, err := Open(Options{DataDir: dir, Shards: 2, Users: users}); err == nil {
		t.Fatal("reopen with 2 shards should fail on a 4-shard data dir")
	}
	if _, err := Open(Options{DataDir: dir, Shards: 8, Users: users}); err == nil {
		t.Fatal("reopen with 8 shards should fail on a 4-shard data dir")
	}

	b2, err := Open(Options{DataDir: dir, Shards: 4, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	for _, id := range ids {
		v, err := b2.Engine.Instance(id)
		if err != nil {
			t.Fatalf("instance %s lost: %v", id, err)
		}
		if v.Status != engine.StatusActive {
			t.Fatalf("instance %s = %s", id, v.Status)
		}
	}
	// And a single-shard dir refuses a sharded reopen.
	sdir := t.TempDir()
	b3, err := Open(Options{DataDir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	b3.Close()
	if _, err := Open(Options{DataDir: sdir, Shards: 4}); err == nil {
		t.Fatal("resharding a single-shard data dir should fail")
	}
}

// TestStripedHistoryOpenReopen covers the per-shard audit pipeline at
// the system level: a 2-shard dir keeps one history journal per shard
// (history/stripe-0000/…), and events recorded across them survive a
// reopen with per-instance order intact and the replay accounted for.
func TestStripedHistoryOpenReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{DataDir: dir, Shards: 2, HistoryWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	b.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	if err := b.Engine.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	const n = 6
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := b.Engine.StartInstance("seq-3", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	total := b.History.Count()
	if total == 0 {
		t.Fatal("no audit events recorded")
	}
	if st := b.History.Stats(); st.Stripes != 2 || st.Window != 16 {
		t.Fatalf("history stats = %+v", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(dir, "history", fmt.Sprintf("stripe-%04d", i))); err != nil {
			t.Fatalf("missing history journal %d: %v", i, err)
		}
	}

	metrics := obs.New()
	b2, err := Open(Options{DataDir: dir, Shards: 2, HistoryWindow: 16, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := b2.History.Count(); got != total {
		t.Fatalf("recovered %d events, want %d", got, total)
	}
	// The replay is accounted for: in the stats, and as a recovery
	// phase of its own beside the engine's, with no record needing the
	// fallback decoder.
	if st := b2.History.Stats(); st.RecoveredEvents != total || st.RecoverySeconds <= 0 || st.Resident > 2*16 {
		t.Errorf("history stats after reopen = %+v, want %d recovered events in > 0 s", st, total)
	}
	var scrape strings.Builder
	if err := metrics.Registry().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bpms_recovery_seconds{phase="history"} 0.`,
		`bpms_recovery_seconds{phase="engine"} 0.`,
	} {
		if !strings.Contains(scrape.String(), want) {
			t.Errorf("missing %q in the scrape", want)
		}
	}
	// Every instance's trail replays in order: started first, then the
	// element lifecycle, completed last — even though the 16-event
	// window forces most of it through journal replay.
	for _, id := range ids {
		evs := b2.History.EventsOf(id)
		if len(evs) == 0 {
			t.Fatalf("instance %s: history lost", id)
		}
		if evs[0].Type != "instance.started" {
			t.Errorf("instance %s: first event %s", id, evs[0].Type)
		}
		if last := evs[len(evs)-1].Type; last != "instance.completed" {
			t.Errorf("instance %s: last event %s", id, last)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Index <= evs[i-1].Index {
				t.Errorf("instance %s: event order broken at %d", id, i)
			}
		}
	}
}

// scrape renders the registry in the text exposition format.
func scrape(t *testing.T, m *obs.Metrics) string {
	t.Helper()
	var sb strings.Builder
	if err := m.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestOverdueItemReportedOnce: with only a default task SLA set, an
// item still open at its due time is reported exactly once, within one
// timer tick of the deadline — one sla.violation event, one count, one
// /violations row — and an item completed in time is never reported
// and leaves no timer entry behind.
func TestOverdueItemReportedOnce(t *testing.T) {
	start := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	clock := timer.NewVirtualClock(start)
	m := obs.New()
	b, err := Open(Options{
		Clock:   clock,
		Metrics: m,
		TaskSLA: time.Minute,
		Users:   []resource.User{{ID: "alice", Roles: []string{"clerk"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p := model.New("audited").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := b.Deploy(p); err != nil {
		t.Fatal(err)
	}
	late, err := b.Engine.StartInstance("audited", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Engine.StartInstance("audited", nil); err != nil {
		t.Fatal(err)
	}
	items := b.Tasks.ByState(task.Offered)
	if len(items) != 2 {
		t.Fatalf("offered items = %d, want 2", len(items))
	}
	var lateID, doneID string
	for _, it := range items {
		if it.InstanceID == late.ID {
			lateID = it.ID
		} else {
			doneID = it.ID
		}
	}
	work := func(id string) {
		t.Helper()
		if _, err := b.Tasks.Claim(id, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Tasks.Start(id, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Tasks.Complete(id, "alice", nil); err != nil {
			t.Fatal(err)
		}
	}
	events := func() int {
		t.Helper()
		if err := b.History.Flush(); err != nil {
			t.Fatal(err)
		}
		return historytest.CountType(t, b.History, history.SLAViolation)
	}
	const counted = `bpms_audit_violations_total{kind="task_overdue"} 1`

	// The item completed in time cancels its timer entry.
	pending := b.Timers.Pending()
	work(doneID)
	if got := b.Timers.Pending(); got != pending-1 {
		t.Fatalf("pending timers after completion = %d, want %d", got, pending-1)
	}

	// One tick short of the deadline: nothing.
	clock.Set(start.Add(time.Minute - 10*time.Millisecond))
	b.Timers.AdvanceTo(clock.Now())
	if v := b.Violations(); len(v) != 0 || events() != 0 {
		t.Fatalf("before the deadline: violations %+v, %d event(s)", v, events())
	}
	// At the deadline: exactly one report.
	clock.Set(start.Add(time.Minute))
	b.Timers.AdvanceTo(clock.Now())
	v := b.Violations()
	if len(v) != 1 || v[0].Kind != KindTaskOverdue || v[0].ID != lateID || v[0].InstanceID != late.ID {
		t.Fatalf("violations = %+v, want one task_overdue for %s", v, lateID)
	}
	if !v[0].Since.Equal(start.Add(time.Minute)) || !v[0].Detected.Equal(clock.Now()) {
		t.Errorf("since %v detected %v, want both %v", v[0].Since, v[0].Detected, clock.Now())
	}
	if n := events(); n != 1 {
		t.Fatalf("sla.violation events = %d, want 1", n)
	}
	if text := scrape(t, m); !strings.Contains(text, counted) {
		t.Fatalf("missing %q in /metrics", counted)
	}
	// Later advances add nothing.
	for i := 0; i < 5; i++ {
		clock.Advance(time.Minute)
		b.Timers.AdvanceTo(clock.Now())
	}
	if v := b.Violations(); len(v) != 1 || events() != 1 {
		t.Fatalf("after later advances: violations %+v, %d event(s)", v, events())
	}
	// Working the item takes it off the list; the count stays.
	work(lateID)
	if v := b.Violations(); len(v) != 0 {
		t.Fatalf("violations after completion = %+v, want none", v)
	}
	if n := events(); n != 1 {
		t.Fatalf("sla.violation events after completion = %d, want 1", n)
	}
	if text := scrape(t, m); !strings.Contains(text, counted) {
		t.Fatalf("missing %q in /metrics after completion", counted)
	}
}

// TestUnsoundDeployReportedOnce: Deploy verifies a definition once. An
// unsound one is listed and reported by the deploy itself, with no
// clock advance; after a restart it is still listed, verified again
// lazily, and not reported a second time.
func TestUnsoundDeployReportedOnce(t *testing.T) {
	dir := t.TempDir()
	clock := timer.NewVirtualClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
	open := func() *BPMS {
		t.Helper()
		b, err := Open(Options{DataDir: dir, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	unsound := func(b *BPMS) {
		t.Helper()
		if err := b.History.Flush(); err != nil {
			t.Fatal(err)
		}
		v := b.Violations()
		if len(v) != 1 || v[0].Kind != KindDefinitionUnsound || v[0].ID != "deadlock-2" || v[0].Detail == "" {
			t.Fatalf("violations = %+v, want deadlock-2 unsound", v)
		}
		if n := historytest.CountType(t, b.History, history.SLAViolation); n != 1 {
			t.Fatalf("sla.violation events = %d, want 1", n)
		}
	}
	b := open()
	// A listing racing the deploys may verify a definition first; the
	// deploy still reports it exactly once.
	stop := make(chan struct{})
	var lister sync.WaitGroup
	lister.Add(1)
	go func() {
		defer lister.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Violations()
			}
		}
	}()
	if err := b.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	if err := b.Deploy(model.WithDeadlock(2)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	lister.Wait()
	unsound(b)
	unsound(b) // listing again verifies nothing and reports nothing
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = open()
	defer b.Close()
	unsound(b)
	unsound(b)
}

// TestDamagedSealedSegmentRefused: a byte flipped in a sealed segment of
// the state WAL, or of a history journal the open reads whole, refuses
// the open with storage.ErrCorrupt naming the file, instead of opening
// with the records after it missing.
func TestDamagedSealedSegmentRefused(t *testing.T) {
	for _, sub := range []string{"state", "history"} {
		t.Run(sub, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{DataDir: dir, SegmentSize: 2048}
			b, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			p, err := b.DeployFile("../../benchmark/testdata/pipeline.json")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if _, err := b.Engine.StartInstance(p.ID, map[string]any{"amount": i, "customer": "c", "region": "north"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, sub, "wal-*.log"))
			if err != nil || len(segs) < 2 {
				t.Fatalf("%d %s segments (%v), want a sealed one", len(segs), sub, err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(segs[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			b, err = Open(opts)
			var ce *storage.ErrCorrupt
			if err == nil {
				b.Close()
			}
			if !errors.As(err, &ce) || ce.Segment != segs[0] || !strings.Contains(err.Error(), segs[0]) {
				t.Fatalf("open with %s damaged: %v, want ErrCorrupt naming it", segs[0], err)
			}
		})
	}
}
