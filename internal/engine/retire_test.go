package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// TestReadFinishedHead pins which finished records recovery archives
// without decoding, and that every other spelling decodes to the same
// identity.
func TestReadFinishedHead(t *testing.T) {
	for _, c := range []struct {
		state, id string
		fast      bool
	}{
		{`{"id":"p-1","processId":"p","status":1,"vars":{}}`, "p-1", true},
		{`{"id":"zoë-2","processId":"p","status":3,"vars":{},"tokens":[{"id":4,"elem":"x"}]}`, "zoë-2", true},
		{`{"id":"a\u0026b-3","processId":"p","status":2,"vars":{}}`, "a&b-3", false},
		{`{"processId":"p","id":"p-4","status":1,"vars":{}}`, "p-4", false},
		{`{"id":"p-5","processId":"p","status": 1,"vars":{}}`, "p-5", false},
		{"{\"id\":\"p\xff-6\",\"processId\":\"p\",\"status\":1,\"vars\":{}}", "p�-6", false},
	} {
		if got := readFinishedHead([]byte(c.state)) != nil; got != c.fast {
			t.Errorf("%s: read in place = %v, want %v", c.state, got, c.fast)
		}
		v, err := decodeState([]byte(c.state))
		if err != nil {
			t.Fatalf("%s: %v", c.state, err)
		}
		f, ok := v.(*finishedRec)
		if !ok || string(f.id) != c.id || string(f.processID) != "p" || !bytes.Equal(f.state, []byte(c.state)) {
			t.Errorf("%s: decoded %+v", c.state, v)
		}
	}
	if v, err := decodeState([]byte(`{"id":"p-7","processId":"p","status":0,"vars":{}}`)); err != nil || v.(*instState).ID != "p-7" {
		t.Errorf("live state decoded to %+v, %v", v, err)
	}
	// A raw control byte is not JSON: refused, not archived.
	if v, err := decodeState([]byte("{\"id\":\"p\x01-8\",\"processId\":\"p\",\"status\":1,\"vars\":{}}")); err == nil {
		t.Errorf("control byte in id decoded to %+v", v)
	}
}

// TestReissueFailuresCounted recovers a case parked at a user task its
// definition no longer has: the work item cannot be re-issued, and the
// engine counts it instead of dropping it silently.
func TestReissueFailuresCounted(t *testing.T) {
	j := storage.NewMemJournal()
	e, err := New(Config{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	p := model.New("held").Start("s").UserTask("work", model.Role("clerk")).End("e").
		Seq("s", "work", "e").MustBuild()
	if err := e.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := e.StartInstance("held", nil)
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	if err := j.Replay(1, func(_ uint64, rec []byte) error {
		last = append(last[:0], rec...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	broken := bytes.Replace(last, []byte(`"elem":"work"`), []byte(`"elem":"gone"`), 1)
	if bytes.Equal(broken, last) {
		t.Fatalf("no parked token in %s", last)
	}
	if _, err := j.Append(broken); err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.ReissueFailures(); n != 1 {
		t.Errorf("ReissueFailures = %d, want 1", n)
	}
	if got, err := e2.Instance(v.ID); err != nil || got.Status != StatusActive {
		t.Errorf("recovered %+v, %v; want the case still parked", got, err)
	}
}

// TestFinishedCaseHeap bounds what a finished case costs the engine's
// heap: its final record and its map entry, not its object graph.
func TestFinishedCaseHeap(t *testing.T) {
	data, err := os.ReadFile("../../benchmark/testdata/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := model.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	j := storage.NewMemJournal()
	e, err := New(Config{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(p); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const cases = 5000
	regions := []string{"north", "south", "east", "west"}
	r := rand.New(rand.NewSource(1))
	before := heap()
	for i := 0; i < cases; i++ {
		v, err := e.StartInstance(p.ID, map[string]any{"amount": r.Intn(10000),
			"customer": fmt.Sprintf("c-%06d", r.Intn(1000000)), "region": regions[r.Intn(4)]})
		if err != nil || v.Status != StatusCompleted {
			t.Fatalf("start: %+v, %v", v, err)
		}
	}
	// The journal's records are storage, not engine state.
	if err := j.DropBefore(j.LastIndex() + 1); err != nil {
		t.Fatal(err)
	}
	per := float64(heap()-before) / cases
	runtime.KeepAlive(e)
	t.Logf("%.0f B of heap per finished case", per)
	if per > 640 {
		t.Errorf("%d finished cases hold %.0f B/case of heap, want at most 640", cases, per)
	}
}

// TestRetireRace retires cases while timers fire, messages arrive, work
// items complete and snapshots run, for the race detector; afterwards
// every case is archived exactly once and reads back finished, and a
// restart from the last snapshot plus journal agrees.
func TestRetireRace(t *testing.T) {
	dir := t.TempDir()
	j, err := storage.OpenFileJournal(dir+"/state", storage.Options{SegmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := storage.OpenSnapshotStore(dir+"/snapshots", 2)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t)
	e, err := New(Config{Journal: j, Snapshots: snaps, Tasks: f.tasks, Timers: f.wheel, Clock: f.clock})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })
	e.RegisterHandler("boom", func(TaskContext) (map[string]expr.Value, error) { return nil, errors.New("boom") })
	defs := []*model.Process{
		model.New("timed").Start("s").TimerCatch("wait", "5ms").End("e").Seq("s", "wait", "e").MustBuild(),
		model.New("msg").Start("s").MessageCatch("wait", "go", model.CorrelationKey("key")).End("e").
			Seq("s", "wait", "e").MustBuild(),
		model.New("human").Start("s").UserTask("work", model.Assignee("bob")).End("e").
			Seq("s", "work", "e").MustBuild(),
		model.Sequence(3),
		model.New("faulty").Start("s").ServiceTask("fail", "boom").End("e").Seq("s", "fail", "e").MustBuild(),
	}
	for _, p := range defs {
		if err := e.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	const perKind = 40
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKind; i++ {
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	run(func(int) error { _, err := e.StartInstance("timed", nil); return err })
	run(func(i int) error {
		key := fmt.Sprint("k", i)
		if _, err := e.StartInstance("msg", map[string]any{"key": key}); err != nil {
			return err
		}
		_, _, err := e.Publish("go", key, nil)
		return err
	})
	run(func(int) error {
		if _, err := e.StartInstance("human", nil); err != nil {
			return err
		}
		for _, it := range f.tasks.Worklist("bob") {
			if _, err := f.tasks.Start(it.ID, "bob"); err != nil {
				return err
			}
			if _, err := f.tasks.Complete(it.ID, "bob", nil); err != nil {
				return err
			}
		}
		return nil
	})
	run(func(int) error { _, err := e.StartInstance("seq-3", nil); return err })
	run(func(int) error { _, err := e.StartInstance("faulty", nil); return err })
	run(func(int) error { f.tick(time.Millisecond); return nil })
	run(func(int) error { return e.Snapshot() })
	run(func(int) error {
		for _, s := range e.Summaries() {
			if _, err := e.Instance(s.ID); err != nil {
				return err
			}
		}
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Let the last timers fire.
	f.tick(time.Second)

	want := e.Summaries()
	if len(want) != len(defs)*perKind || e.ArchivedCount() != len(want) {
		t.Fatalf("%d cases, %d archived; want %d, all archived", len(want), e.ArchivedCount(), len(defs)*perKind)
	}
	for _, s := range want {
		if (s.Status == StatusFaulted) != (s.ProcessID == "faulty") || s.Status == StatusActive {
			t.Errorf("%s ended %s", s.ID, s.Status)
		}
	}
	checkArchiveReencodes(t, e)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := storage.OpenFileJournal(dir+"/state", storage.Options{SegmentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snaps2, err := storage.OpenSnapshotStore(dir+"/snapshots", 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Journal: j2, Snapshots: snaps2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Summaries(); fmt.Sprint(got) != fmt.Sprint(want) || e2.ArchivedCount() != len(want) {
		t.Errorf("restart lists %d cases (%d archived), want the %d finished before it", len(got), e2.ArchivedCount(), len(want))
	}
	checkArchiveReencodes(t, e2)
}

// checkArchiveReencodes holds each archived record to what encoding the
// case rebuilt from it gives: a snapshot that copies the record writes
// the bytes one that re-encoded the case would.
func checkArchiveReencodes(t *testing.T, e *Engine) {
	t.Helper()
	for _, s := range e.Summaries() {
		inst, err := e.lockCase(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := e.encodeInstance(inst)
		inst.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		a := e.archive[s.ID]
		e.mu.RUnlock()
		if !bytes.Equal(data, a.state) {
			t.Errorf("%s: archived %s, re-encodes to %s", s.ID, a.state, data)
		}
	}
}

// TestLegacyBlobSnapshotOpens writes a snapshot in the single-blob
// format the engine no longer writes, and recovers from it: live cases
// rebuilt and re-armed, finished ones archived.
func TestLegacyBlobSnapshotOpens(t *testing.T) {
	f := newFixture(t)
	p := model.New("held").Start("s").UserTask("work", model.Assignee("bob")).End("e").
		Seq("s", "work", "e").MustBuild()
	for _, def := range []*model.Process{p, model.Sequence(3)} {
		if err := f.e.Deploy(def); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		for _, proc := range []string{"held", "seq-3"} {
			if _, err := f.e.StartInstance(proc, map[string]any{"n": i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := snapshotImage{}
	for _, id := range f.e.Definitions() {
		def, _ := f.e.Definition(id)
		img.Definitions = append(img.Definitions, def)
	}
	want := f.e.Summaries()
	for _, s := range want {
		inst, err := f.e.lockCase(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := f.e.encodeInstance(inst)
		inst.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		img.Instances = append(img.Instances, data)
	}
	blob, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := storage.OpenSnapshotStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Write(1, blob); err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Journal: storage.NewMemJournal(), Snapshots: snaps, Tasks: f.tasks})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Summaries(); fmt.Sprint(got) != fmt.Sprint(want) || e2.ArchivedCount() != 3 {
		t.Errorf("recovered %v (%d archived), want %v with the 3 finished archived", got, e2.ArchivedCount(), want)
	}
	for _, s := range want {
		a, _ := f.e.Instance(s.ID)
		b, err := e2.Instance(s.ID)
		if err != nil || a.Status != b.Status || fmt.Sprint(a.Vars) != fmt.Sprint(b.Vars) || len(a.ActiveTokens) != len(b.ActiveTokens) {
			t.Errorf("%s: recovered %+v, %v; want %+v", s.ID, b, err, a)
		}
	}
}
