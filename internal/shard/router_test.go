package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// newTestRouter builds an n-shard router on in-memory journals with a
// shared worklist, history store, and virtual-friendly clock.
func newTestRouter(t *testing.T, n int, users ...resource.User) (*Router, *history.Store, *task.Service) {
	t.Helper()
	journals := make([]storage.Journal, n)
	for i := range journals {
		journals[i] = storage.NewMemJournal()
	}
	hist, err := history.NewStriped([]storage.Journal{storage.NewMemJournal()}, history.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := resource.NewDirectory()
	for i := range users {
		dir.AddUser(&users[i])
	}
	tasks := task.NewService(task.Config{Directory: dir})
	r, err := New(Config{
		Journals: journals,
		Tasks:    tasks,
		Timers:   timer.NewWheelService(10*time.Millisecond, 512),
		History:  hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	return r, hist, tasks
}

func TestRouterPartitionsInstances(t *testing.T) {
	r, hist, _ := newTestRouter(t, 4)
	if err := r.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	// Deployment fans out to all shards but is audited exactly once.
	if got := hist.CountByType(history.ProcessDeployed); got != 1 {
		t.Errorf("ProcessDeployed events = %d, want 1", got)
	}
	for _, s := range []int{0, 1, 2, 3} {
		if defs := r.Shard(s).Definitions(); len(defs) != 1 {
			t.Fatalf("shard %d definitions = %v", s, defs)
		}
	}

	const n = 64
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := r.StartInstance("seq-3", map[string]any{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != engine.StatusCompleted {
			t.Fatalf("status = %s", v.Status)
		}
		ids = append(ids, v.ID)
	}

	// Every instance is on the shard its ID hashes to, and with 64
	// instances over 4 shards each shard holds some.
	total := 0
	for _, st := range r.Stats() {
		if st.Instances == 0 {
			t.Errorf("shard %d is empty — hash partitioning suspiciously skewed", st.Shard)
		}
		total += st.Instances
	}
	if total != n {
		t.Fatalf("instances across shards = %d, want %d", total, n)
	}
	for _, id := range ids {
		if !r.Shard(r.shardOf(id)).Has(id) {
			t.Fatalf("instance %s not on its hash shard %d", id, r.shardOf(id))
		}
		if _, err := r.Instance(id); err != nil {
			t.Fatalf("route to %s: %v", id, err)
		}
	}
	if got := len(r.Instances()); got != n {
		t.Fatalf("Instances() = %d ids, want %d", got, n)
	}
}

func TestRouterInstanceOpsRouteToOwner(t *testing.T) {
	r, _, tasks := newTestRouter(t, 4, resource.User{ID: "alice", Roles: []string{"clerk"}})
	p := model.New("held").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := r.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := r.StartInstance("held", map[string]any{"k": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetVariable(v.ID, "note", "hello"); err != nil {
		t.Fatal(err)
	}
	vars, err := r.Variables(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := vars["note"].AsString(); s != "hello" {
		t.Fatalf("note = %v", vars["note"])
	}

	// Completing the task through the shared worklist resumes the
	// instance on its owner shard (and only there).
	items := tasks.OfferedItems("alice")
	if len(items) != 1 {
		t.Fatalf("offered = %d", len(items))
	}
	if _, err := tasks.Claim(items[0].ID, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := tasks.Start(items[0].ID, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := tasks.Complete(items[0].ID, "alice", nil); err != nil {
		t.Fatal(err)
	}
	got, err := r.Instance(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != engine.StatusCompleted {
		t.Fatalf("status after complete = %s", got.Status)
	}

	v2, err := r.StartInstance("held", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CancelInstance(v2.ID, "test"); err != nil {
		t.Fatal(err)
	}
	got2, _ := r.Instance(v2.ID)
	if got2.Status != engine.StatusCancelled {
		t.Fatalf("status after cancel = %s", got2.Status)
	}
}

func waiterProcess() *model.Process {
	return model.New("waiter").
		Start("s").MessageCatch("w", "evt", model.CorrelationKey("k")).End("e").
		Seq("s", "w", "e").MustBuild()
}

func TestCrossShardCorrelationToWaiting(t *testing.T) {
	r, _, _ := newTestRouter(t, 4)
	if err := r.Deploy(waiterProcess()); err != nil {
		t.Fatal(err)
	}
	const n = 16
	ids := make(map[string]string, n) // key -> instance id
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("case-%d", i)
		v, err := r.StartInstance("waiter", map[string]any{"k": key})
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != engine.StatusActive {
			t.Fatalf("waiter %d not parked: %s", i, v.Status)
		}
		ids[key] = v.ID
	}
	// Publish to each key: the subscriber's shard is determined by its
	// instance ID, not the key, so delivery must cross shards.
	crossed := false
	for key, id := range ids {
		if r.shardOf(key) != r.shardOf(id) {
			crossed = true
		}
		delivered, buffered, err := r.Publish("evt", key, map[string]any{"payload": key})
		if err != nil || buffered || delivered != 1 {
			t.Fatalf("publish %s: delivered=%d buffered=%v err=%v", key, delivered, buffered, err)
		}
		got, err := r.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != engine.StatusCompleted {
			t.Fatalf("instance %s after publish = %s", id, got.Status)
		}
		if s, _ := got.Vars["payload"].AsString(); s != key {
			t.Fatalf("payload = %v", got.Vars["payload"])
		}
	}
	if !crossed {
		t.Fatal("test never exercised a cross-shard delivery; adjust keys")
	}
}

func TestCrossShardBufferedMessage(t *testing.T) {
	r, _, _ := newTestRouter(t, 4)
	if err := r.Deploy(waiterProcess()); err != nil {
		t.Fatal(err)
	}
	// The first started instance will be waiter-1; pick a key whose
	// hash shard differs from that instance's shard so the early
	// message is buffered on a foreign shard.
	futureID := "waiter-1"
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("early-%d", i)
		if r.shardOf(k) != r.shardOf(futureID) {
			key = k
			break
		}
	}
	delivered, buffered, err := r.Publish("evt", key, map[string]any{"payload": "early"})
	if err != nil || !buffered || delivered != 0 {
		t.Fatalf("early publish: delivered=%d buffered=%v err=%v", delivered, buffered, err)
	}
	if _, ok := r.Shard(r.shardOf(key)).TakeBuffered("evt", key); !ok {
		t.Fatal("message not buffered on the key's hash shard")
	}
	// Re-buffer it (TakeBuffered consumed it above).
	vars, _ := engine.ConvertVars(map[string]any{"payload": "early"})
	r.Shard(r.shardOf(key)).BufferMessage("evt", key, vars)

	v, err := r.StartInstance("waiter", map[string]any{"k": key})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != futureID {
		t.Fatalf("instance id = %s, want %s", v.ID, futureID)
	}
	if v.Status != engine.StatusCompleted {
		t.Fatalf("parking token did not consume the cross-shard buffered message: %s", v.Status)
	}
	if s, _ := v.Vars["payload"].AsString(); s != "early" {
		t.Fatalf("payload = %v", v.Vars["payload"])
	}
}

func TestCrossShardThrownMessage(t *testing.T) {
	r, _, _ := newTestRouter(t, 4)
	if err := r.Deploy(waiterProcess()); err != nil {
		t.Fatal(err)
	}
	thrower := model.New("thrower").
		Start("s").MessageThrow("t", "evt", model.CorrelationKey("target")).End("e").
		Seq("s", "t", "e").MustBuild()
	if err := r.Deploy(thrower); err != nil {
		t.Fatal(err)
	}
	// Park waiters on every shard, then fire throwers at each: the
	// thrown message leaves via the throwing shard's Publisher hook and
	// must reach the waiter wherever it lives.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("pair-%d", i)
		w, err := r.StartInstance("waiter", map[string]any{"k": key})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.StartInstance("thrower", map[string]any{"target": key}); err != nil {
			t.Fatal(err)
		}
		got, err := r.Instance(w.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != engine.StatusCompleted {
			t.Fatalf("waiter %s after throw = %s", w.ID, got.Status)
		}
	}
}

func TestRouterParallelRecovery(t *testing.T) {
	dir := t.TempDir()
	users := []resource.User{{ID: "alice", Roles: []string{"clerk"}}}
	open := func() (*Router, *task.Service, []storage.Journal) {
		journals := make([]storage.Journal, 4)
		snaps := make([]*storage.SnapshotStore, 4)
		for i := range journals {
			j, err := storage.OpenFileJournal(filepath.Join(dir, fmt.Sprintf("shard-%04d", i), "state"), storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			journals[i] = j
			s, err := storage.OpenSnapshotStore(filepath.Join(dir, fmt.Sprintf("shard-%04d", i), "snapshots"), 2)
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = s
		}
		d := resource.NewDirectory()
		for i := range users {
			d.AddUser(&users[i])
		}
		tasks := task.NewService(task.Config{Directory: d})
		r, err := New(Config{
			Journals:  journals,
			Snapshots: snaps,
			Tasks:     tasks,
			Timers:    timer.NewWheelService(10*time.Millisecond, 512),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, tasks, journals
	}

	r, _, journals := open()
	p := model.New("held").
		Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := r.Deploy(p); err != nil {
		t.Fatal(err)
	}
	const n = 12
	ids := make([]string, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := r.StartInstance("held", map[string]any{"i": i})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ids = append(ids, v.ID)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	// Admin snapshot across all shards, then "crash" (close journals).
	if err := r.Snapshot(); err != nil {
		t.Fatalf("snapshot fan-out: %v", err)
	}
	for _, j := range journals {
		j.Close()
	}

	r2, tasks2, journals2 := open()
	defer func() {
		for _, j := range journals2 {
			j.Close()
		}
	}()
	if got := len(r2.Instances()); got != n {
		t.Fatalf("recovered %d instances, want %d", got, n)
	}
	for _, id := range ids {
		v, err := r2.Instance(id)
		if err != nil {
			t.Fatalf("instance %s lost: %v", id, err)
		}
		if v.Status != engine.StatusActive {
			t.Fatalf("instance %s recovered as %s", id, v.Status)
		}
	}
	// Recovery re-issued the parked work items on the shared worklist.
	if got := len(tasks2.OfferedItems("alice")); got != n {
		t.Fatalf("re-issued work items = %d, want %d", got, n)
	}
	// The ID sequence continues past recovered instances: a new start
	// must not collide.
	v, err := r2.StartInstance("held", nil)
	if err != nil {
		t.Fatalf("start after recovery: %v", err)
	}
	for _, id := range ids {
		if id == v.ID {
			t.Fatalf("post-recovery instance reused id %s", id)
		}
	}
}
