package core

import (
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

// TestDurableBatchRecoveryWithoutClose is the group-commit durability
// contract at the system level: with SyncPolicy SyncBatch and Durable
// acknowledgements, every state transition that returned survives a
// crash — simulated by reopening the data dir WITHOUT closing the
// first system (Close would flush everything and mask the guarantee).
func TestDurableBatchRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{
		DataDir:    dir,
		SyncPolicy: storage.SyncBatch,
		Durable:    true,
		Users:      []resource.User{{ID: "alice", Roles: []string{"clerk"}}},
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

// TestStripedHistoryOpenReopen covers the striped audit pipeline at
// the system level: events recorded across stripes survive a reopen
// with per-instance order intact, the on-disk layout matches the
// stripe count, and a stripe-count mismatch is refused like a shard
// mismatch.
func TestStripedHistoryOpenReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{DataDir: dir, HistoryStripes: 2, HistoryWindow: 16})
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
			t.Fatalf("missing history stripe %d: %v", i, err)
		}
	}

	// Stripe-count mismatches are refused.
	if _, err := Open(Options{DataDir: dir}); err == nil {
		t.Fatal("reopen with 1 stripe should fail on a 2-stripe data dir")
	}
	if _, err := Open(Options{DataDir: dir, HistoryStripes: 4}); err == nil {
		t.Fatal("reopen with 4 stripes should fail on a 2-stripe data dir")
	}

	metrics := obs.New()
	b2, err := Open(Options{DataDir: dir, HistoryStripes: 2, HistoryWindow: 16, Metrics: metrics})
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
		`bpms_history_decode_fallback_total{stripe="0"} 0`,
		`bpms_history_decode_fallback_total{stripe="1"} 0`,
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

	// A single-stripe (legacy layout) dir refuses a striped reopen.
	sdir := t.TempDir()
	b3, err := Open(Options{DataDir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	b3.Engine.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	if err := b3.Engine.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := b3.Engine.StartInstance("seq-3", nil); err != nil {
		t.Fatal(err)
	}
	if err := b3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: sdir, HistoryStripes: 2}); err == nil {
		t.Fatal("re-striping a single-stripe data dir should fail")
	}
}

// TestWorklistStripesThreading: Options.WorklistStripes reaches the
// task service, the striped worklist answers queries identically, and
// recovery re-issues parked work items into it regardless of the
// stripe count (the worklist is in-memory — no on-disk layout to
// match).
func TestWorklistStripesThreading(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{DataDir: dir, WorklistStripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.Tasks.Stripes() != 4 {
		t.Fatalf("stripes = %d", b.Tasks.Stripes())
	}
	b.AddUser("alice", "clerk")
	p := model.New("striped-wl").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := b.Engine.StartInstance("striped-wl", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(b.Tasks.OfferedItems("alice")); got != n {
		t.Fatalf("offered = %d, want %d", got, n)
	}
	st := b.Tasks.Stats()
	if st.Stripes != 4 || st.Items != n || st.Open != n {
		t.Fatalf("stats = %+v", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a DIFFERENT stripe count: the reissued items must
	// land in the new striped worklist.
	b2, err := Open(Options{DataDir: dir, WorklistStripes: 8,
		Users: []resource.User{{ID: "alice", Roles: []string{"clerk"}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	items := b2.Tasks.OfferedItems("alice")
	if len(items) != n {
		t.Fatalf("offered after recovery = %d, want %d", len(items), n)
	}
	// The recovered worklist still drives instances to completion.
	it := items[0]
	b2.Tasks.Claim(it.ID, "alice")
	b2.Tasks.Start(it.ID, "alice")
	if _, err := b2.Tasks.Complete(it.ID, "alice", nil); err != nil {
		t.Fatal(err)
	}
	got, err := b2.Engine.Instance(it.InstanceID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != engine.StatusCompleted {
		t.Fatalf("status after resume = %s", got.Status)
	}
}

// TestAuditorDetectsOverdueTaskOnce is the sweeper's system-level
// contract: with a default task SLA, an unattended work item becomes a
// violation after its synthetic deadline passes; the violation is
// counted and written to the audit trail exactly once across repeated
// sweeps; and completing the item clears it from the active set.
func TestAuditorDetectsOverdueTaskOnce(t *testing.T) {
	clock := timer.NewVirtualClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
	b, err := Open(Options{
		Clock:         clock,
		Metrics:       obs.New(),
		AuditInterval: time.Hour, // ticker never fires in-test; sweeps are manual
		TaskSLA:       time.Minute,
		Users:         []resource.User{{ID: "alice", Roles: []string{"clerk"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p := model.New("audited").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := b.Engine.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := b.Engine.StartInstance("audited", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Before the SLA passes: clean sweep.
	if fresh := b.Auditor.Sweep(); len(fresh) != 0 {
		t.Fatalf("pre-deadline sweep found %d violation(s)", len(fresh))
	}

	clock.Advance(2 * time.Minute)
	fresh := b.Auditor.Sweep()
	if len(fresh) != 1 || fresh[0].Kind != obs.KindTaskOverdue || fresh[0].InstanceID != v.ID {
		t.Fatalf("post-deadline sweep fresh = %+v, want one task_overdue for %s", fresh, v.ID)
	}
	// Still overdue on later sweeps: active, but never re-counted.
	clock.Advance(time.Minute)
	if again := b.Auditor.Sweep(); len(again) != 0 {
		t.Fatalf("repeat sweep re-detected: %+v", again)
	}
	if got := b.Auditor.Violations(); len(got) != 1 {
		t.Fatalf("active violations = %d, want 1", len(got))
	}
	if err := b.History.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := b.History.CountByType(history.SLAViolation); n != 1 {
		t.Fatalf("sla.violation audit events = %d, want exactly 1", n)
	}

	// Work the item: the violation clears from the active set.
	items := b.Tasks.ByState(task.Offered)
	if len(items) != 1 {
		t.Fatalf("offered items = %d", len(items))
	}
	id := items[0].ID
	if _, err := b.Tasks.Claim(id, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Tasks.Start(id, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Tasks.Complete(id, "alice", nil); err != nil {
		t.Fatal(err)
	}
	if fresh := b.Auditor.Sweep(); len(fresh) != 0 {
		t.Fatalf("post-completion sweep fresh = %+v", fresh)
	}
	if got := b.Auditor.Violations(); len(got) != 0 {
		t.Fatalf("active after completion = %+v, want none", got)
	}
}
