package history

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"bpms/internal/storage"
)

func memJournals(n int) []storage.Journal {
	out := make([]storage.Journal, n)
	for i := range out {
		out[i] = storage.NewMemJournal()
	}
	return out
}

func fileJournals(t *testing.T, dir string, n int, opts storage.Options) []storage.Journal {
	t.Helper()
	out := make([]storage.Journal, n)
	for i := range out {
		j, err := storage.OpenFileJournal(filepath.Join(dir, fmt.Sprintf("stripe-%04d", i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = j
	}
	return out
}

// TestAppendEncodeRoundTrip: every field but the index (the journal
// position is the index) survives AppendEncode → DecodeEvent.
func TestAppendEncodeRoundTrip(t *testing.T) {
	events := []*Event{
		{Type: InstanceStarted, Time: ts(1), ProcessID: "p", InstanceID: "i-1"},
		{Index: 42, Type: TaskCompleted, Time: ts(2).Add(123456789 * time.Nanosecond),
			ProcessID: "order", InstanceID: "i-2", ElementID: "approve",
			Element: "Approve \"big\" order\n<tab>\t", TaskID: "t-9", Actor: "alice\\bob",
			Data: map[string]any{"amount": 150.0, "ok": true, "note": "a\"b"}},
		{Type: ElementCompleted, Time: time.Time{}, InstanceID: "i-3", Data: map[string]any{"routing": true}},
		{Type: MessagePublished, Time: ts(3), Element: "ünïcödé — 事件"},
	}
	for i, e := range events {
		fast, err := AppendEncode(nil, e)
		if err != nil {
			t.Fatalf("event %d: AppendEncode: %v", i, err)
		}
		got, err := DecodeEvent(fast)
		if err != nil {
			t.Fatalf("event %d: decode fast form: %v\n%s", i, err, fast)
		}
		if got.Type != e.Type || got.ProcessID != e.ProcessID || got.InstanceID != e.InstanceID ||
			got.ElementID != e.ElementID || got.Element != e.Element || got.TaskID != e.TaskID ||
			got.Actor != e.Actor || got.Index != 0 || !got.Time.Equal(e.Time) {
			t.Errorf("event %d: round trip mismatch:\n got %+v\nwant %+v", i, got, e)
		}
		if !reflect.DeepEqual(got.Data, e.Data) {
			t.Errorf("event %d: data mismatch: got %v want %v", i, got.Data, e.Data)
		}
	}
	// Encoding appends to the given buffer rather than replacing it.
	prefix := []byte("xx")
	out, err := AppendEncode(prefix, events[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(out[:2]) != "xx" || out[2] != recordV2 {
		t.Errorf("AppendEncode did not append: %q", out[:3])
	}
}

// TestStripedConcurrentAppendQuery hammers a striped store from many
// writers while readers query it (run under -race in CI): per-instance
// order must hold throughout and all events must land.
func TestStripedConcurrentAppendQuery(t *testing.T) {
	s, err := NewStriped(memJournals(4), StoreOptions{Window: 64, QueueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 8, 200
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers race the writers.
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Count()
				evs := s.EventsOf(fmt.Sprintf("inst-%d", r))
				for i := 1; i < len(evs); i++ {
					if evs[i].Data["seq"].(float64) <= evs[i-1].Data["seq"].(float64) {
						t.Errorf("out-of-order events for inst-%d", r)
						return
					}
				}
				_ = s.All(func(*Event) error { return nil })
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			inst := fmt.Sprintf("inst-%d", w)
			for i := 0; i < perWriter; i++ {
				s.Enqueue(&Event{
					Type: ElementCompleted, Time: ts(i), InstanceID: inst,
					Data: map[string]any{"seq": float64(i)},
				})
			}
		}(w)
	}
	// Wait for the writers, stop the readers, then verify the final
	// image: queries barrier on the pipeline, so everything written is
	// visible.
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		evs := s.EventsOf(fmt.Sprintf("inst-%d", w))
		if len(evs) != perWriter {
			t.Fatalf("inst-%d: %d events, want %d", w, len(evs), perWriter)
		}
		for i, e := range evs {
			if int(e.Data["seq"].(float64)) != i {
				t.Fatalf("inst-%d: event %d has seq %v", w, i, e.Data["seq"])
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestFlushedPrefixSurvivesCrash proves the Flush contract: events
// acknowledged by Flush are on stable storage and replay in per-
// instance order after a crash (simulated by reopening the journals
// without Close, as the WAL reopen-without-Close tests do). The
// unflushed tail is best-effort by design.
func TestFlushedPrefixSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	const stripes = 2
	js := fileJournals(t, dir, stripes, storage.Options{Policy: storage.SyncNever})
	s, err := NewStriped(js, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const flushed, tail = 40, 7
	for i := 0; i < flushed; i++ {
		s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i),
			InstanceID: fmt.Sprintf("i-%d", i%3), Data: map[string]any{"seq": float64(i)}})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A tail past the Flush barrier: appended to the journals' write
	// buffers but never synced — the crash may lose it.
	for i := flushed; i < flushed+tail; i++ {
		s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i),
			InstanceID: fmt.Sprintf("i-%d", i%3), Data: map[string]any{"seq": float64(i)}})
	}
	if got := s.Count(); got != flushed+tail { // drains the pipeline
		t.Fatalf("pre-crash Count = %d", got)
	}

	// "Crash": reopen the journal dirs without closing the store.
	js2 := fileJournals(t, dir, stripes, storage.Options{Policy: storage.SyncNever})
	s2, err := NewStriped(js2, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count(); got < flushed {
		t.Fatalf("recovered %d events, want at least the %d flushed", got, flushed)
	}
	// Per instance: the flushed prefix is intact and ordered.
	bySeq := map[string][]int{}
	for _, id := range s2.InstanceIDs() {
		for _, e := range s2.EventsOf(id) {
			bySeq[id] = append(bySeq[id], int(e.Data["seq"].(float64)))
		}
	}
	want := map[string][]int{}
	for i := 0; i < flushed; i++ {
		id := fmt.Sprintf("i-%d", i%3)
		want[id] = append(want[id], i)
	}
	for id, seqs := range want {
		got := bySeq[id]
		if len(got) < len(seqs) {
			t.Fatalf("%s: recovered %d events, want >= %d (flushed prefix lost)", id, len(got), len(seqs))
		}
		for i, s := range seqs {
			if got[i] != s {
				t.Fatalf("%s: event %d has seq %d, want %d (order broken)", id, i, got[i], s)
			}
		}
		// Any recovered tail must continue in order too.
		for i := len(seqs) + 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("%s: tail out of order: %v", id, got)
			}
		}
	}
}

// TestWindowEvictionEquivalence proves a bounded store answers
// queries identically to an unbounded one: evicted ranges are served
// by journal replay.
func TestWindowEvictionEquivalence(t *testing.T) {
	dir := t.TempDir()
	j, err := storage.OpenFileJournal(filepath.Join(dir, "hist"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	const total = 50
	want := map[string][]int{}
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("i-%d", i%3)
		if err := s.Append(&Event{Type: ElementCompleted, Time: ts(i),
			InstanceID: id, Data: map[string]any{"seq": float64(i)}}); err != nil {
			t.Fatal(err)
		}
		want[id] = append(want[id], i)
	}
	stats := s.Stats()
	if stats.Resident > 8 {
		t.Errorf("resident = %d, want <= window 8", stats.Resident)
	}
	if stats.Evicted != total-stats.Resident {
		t.Errorf("evicted = %d resident = %d total = %d", stats.Evicted, stats.Resident, total)
	}
	if s.Count() != total {
		t.Errorf("Count = %d, want %d (counters are cumulative)", s.Count(), total)
	}
	// EventsOf must splice journal prefix + RAM suffix into the full
	// ordered history.
	for id, seqs := range want {
		evs := s.EventsOf(id)
		if len(evs) != len(seqs) {
			t.Fatalf("%s: %d events, want %d", id, len(evs), len(seqs))
		}
		var lastIdx uint64
		for i, e := range evs {
			if int(e.Data["seq"].(float64)) != seqs[i] {
				t.Fatalf("%s: event %d seq %v, want %d", id, i, e.Data["seq"], seqs[i])
			}
			if e.Index <= lastIdx {
				t.Fatalf("%s: indexes not increasing: %d after %d", id, e.Index, lastIdx)
			}
			lastIdx = e.Index
		}
	}
	// All streams every event in index order despite eviction.
	var indexes []uint64
	if err := s.All(func(e *Event) error {
		indexes = append(indexes, e.Index)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(indexes) != total {
		t.Fatalf("All streamed %d events, want %d", len(indexes), total)
	}
	for i := 1; i < len(indexes); i++ {
		if indexes[i] != indexes[i-1]+1 {
			t.Fatalf("All order broken at %d: %v", i, indexes[i-1:i+1])
		}
	}
	// A fresh unbounded store over the same journal agrees exactly.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := storage.OpenFileJournal(filepath.Join(dir, "hist"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewStriped([]storage.Journal{j2}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	for id := range want {
		a, b := len(full.EventsOf(id)), len(want[id])
		if a != b {
			t.Errorf("%s: unbounded store has %d events, want %d", id, a, b)
		}
	}
}

// TestStoreCloseStopsPipeline checks Close is idempotent, drains the
// queue, and that queries still answer from RAM afterwards.
func TestStoreCloseStopsPipeline(t *testing.T) {
	s, err := NewStriped(memJournals(2), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i), InstanceID: "i-1"})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := s.Count(); got != 20 {
		t.Errorf("post-close Count = %d, want 20", got)
	}
	if got := len(s.EventsOf("i-1")); got != 20 {
		t.Errorf("post-close EventsOf = %d, want 20", got)
	}
	// Enqueue after Close must not panic (events are dropped).
	s.Enqueue(&Event{Type: ElementCompleted, Time: ts(99), InstanceID: "i-1"})
	if err := s.Append(&Event{Type: ElementCompleted, Time: ts(99)}); err == nil {
		t.Error("Append after Close should error")
	}
}

// TestFlushSurfacesEnqueueErrors: a failed committer append on the
// fire-and-forget Enqueue path must still surface via Flush.
func TestFlushSurfacesEnqueueErrors(t *testing.T) {
	j := storage.NewMemJournal()
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s.Enqueue(&Event{Type: ElementCompleted, Time: ts(1), InstanceID: "i-1"})
	if err := s.Flush(); err == nil {
		t.Error("Flush should report the dropped append")
	}
}
