package history

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"bpms/internal/storage"
)

// pipelineTrail appends the audit trail of cases scripted pipeline cases
// to j the way the engine emits it: 16 events per case, one case after
// the other, the routing elements' completions carrying a data object.
func pipelineTrail(t testing.TB, j storage.Journal, cases int) {
	t.Helper()
	elements := []struct {
		id      string
		routing bool
	}{{"ingest", true}, {"validate", false}, {"branch", true}, {"fastPath", false},
		{"merge", true}, {"record", false}, {"done", true}}
	at := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	var buf []byte
	put := func(e Event) {
		at = at.Add(1237 * time.Nanosecond)
		e.Time, e.ProcessID = at, "bench-pipeline"
		var err error
		if buf, err = AppendEncode(buf[:0], &e); err == nil {
			_, err = j.Append(buf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= cases; i++ {
		inst := fmt.Sprintf("bench-pipeline-%d", i)
		put(Event{Type: InstanceStarted, InstanceID: inst})
		for _, el := range elements {
			put(Event{Type: ElementActivated, InstanceID: inst, ElementID: el.id})
			done := Event{Type: ElementCompleted, InstanceID: inst, ElementID: el.id}
			if el.routing {
				done.Data = map[string]any{"routing": true}
			}
			put(done)
		}
		put(Event{Type: InstanceCompleted, InstanceID: inst})
	}
}

// keepOpen hides a journal's Close, so a store over it can be closed,
// stopping its committers, and the journal opened again.
type keepOpen struct{ storage.Journal }

func (keepOpen) Close() error { return nil }

// TestResidentWindowHeap gates what a resident event costs: reopening
// the trail of 20 000 pipeline cases (320 000 events) at window 100 000
// against window 1, the difference in live heap per extra resident
// event. As decoded events the window cost about 330 B each; as packed
// records, a record's ~60 B, its locator and its instance's index.
func TestResidentWindowHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 320 000-event journal")
	}
	const cases, window = 20000, 100000
	j := storage.NewMemJournal()
	pipelineTrail(t, j, cases)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	opened := func(window int) int64 {
		before := heap()
		s, err := NewStriped([]storage.Journal{keepOpen{j}}, StoreOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() // stops the committer, which would keep s alive
		held := heap() - before
		if st := s.Stats(); st.Resident != window || st.Events != 16*cases {
			t.Fatalf("window %d: %d resident of %d events", window, st.Resident, st.Events)
		}
		return held
	}
	small, large := opened(1), opened(window)
	per := float64(large-small) / (window - 1)
	t.Logf("%.0f B of heap per resident event (window 1: %d B, window %d: %d B)", per, small, window, large)
	if per > 150 {
		t.Errorf("a resident event holds %.0f B of heap, want at most 150", per)
	}
}

// TestResidentAnswersMatchReopened: what a live store answers from its
// resident window is exactly what a store reopened over the same
// journals answers, at every window: both decode the same records. The
// events carry what a decode normalises — integer data, a Local time
// with a monotonic reading — and the odd cases: no instance, strings
// that need escaping in JSON, a custom type.
func TestResidentAnswersMatchReopened(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("LCL", 3600)
	t.Cleanup(func() { time.Local = saved })
	for _, window := range []int{0, 1, 16} {
		for _, stripes := range []int{1, 4} {
			t.Run(fmt.Sprintf("window=%d/stripes=%d", window, stripes), func(t *testing.T) {
				journals := memJournals(stripes)
				live, err := NewStriped(journals, StoreOptions{Window: window})
				if err != nil {
					t.Fatal(err)
				}
				defer live.Close()
				for i := 0; i < 60; i++ {
					e := &Event{Type: ElementCompleted, Time: time.Now(), ProcessID: "port-manifest",
						InstanceID: fmt.Sprintf("port-manifest-%d", i%5), ElementID: fmt.Sprintf("el-%d", i%3)}
					switch i % 6 {
					case 0:
						e.Data = map[string]any{"containers": i, "teu": int64(2 * i), "hazmat": i%4 == 0}
					case 1:
						e.Element, e.Actor = "Re-scan \"IMDG\" class\t3 <ü>", `customs\desk`
					case 2:
						e.Type = "port.berth.assigned"
					case 3:
						e.InstanceID, e.Type = "", ProcessDeployed
					case 4:
						e.Data = map[string]any{"routing": true}
					}
					live.Enqueue(e)
				}
				want := storeAnswers(t, live)
				reopened, err := NewStriped(journals, StoreOptions{Window: window})
				if err != nil {
					t.Fatal(err)
				}
				got := storeAnswers(t, reopened)
				if !reflect.DeepEqual(want, got) {
					for k := range want.eventsOf {
						if !reflect.DeepEqual(want.eventsOf[k], got.eventsOf[k]) {
							t.Errorf("EventsOf(%q):\nlive     %+v\nreopened %+v", k, want.eventsOf[k], got.eventsOf[k])
						}
					}
					if !reflect.DeepEqual(want.all, got.all) {
						t.Errorf("All differs: live %d events, reopened %d", len(want.all), len(got.all))
					}
					if want.xes != got.xes {
						t.Errorf("XES differs:\nlive\n%s\nreopened\n%s", want.xes, got.xes)
					}
				}
			})
		}
	}
}

// skippingJournal is a journal whose appends at the listed indexes take
// the index, keep the record and still fail, as a FileJournal append
// whose fsync fails under a per-append sync policy does.
type skippingJournal struct {
	*storage.MemJournal
	fail map[uint64]bool
}

func (j skippingJournal) Append(p []byte) (uint64, error) {
	index, err := j.MemJournal.Append(p)
	if err == nil && j.fail[index] {
		return 0, fmt.Errorf("fsync of record %d failed", index)
	}
	return index, err
}

// TestWindowRestartsAfterIndexGap: a failed append that took an index
// leaves a gap in what the committer indexes. The window holds
// contiguous indexes, so it is emptied there; every answer still equals
// the journal's, which keeps the failed record too.
func TestWindowRestartsAfterIndexGap(t *testing.T) {
	j := skippingJournal{storage.NewMemJournal(), map[uint64]bool{5: true, 9: true}}
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 12; i++ {
		e := &Event{Type: ElementCompleted, Time: ts(i), InstanceID: fmt.Sprintf("i-%d", i%2),
			Data: map[string]any{"seq": float64(i)}}
		if err := s.Append(e); err != nil {
			failed++
		}
	}
	if failed != 2 || s.Flush() == nil {
		t.Fatalf("%d appends failed, want 2 reported by Flush too", failed)
	}
	if st := s.Stats(); st.Resident > 4 || st.Events != 10 || st.Evicted != st.Events-st.Resident {
		t.Errorf("stats %+v: want 10 events, at most 4 resident, the rest evicted", st)
	}
	reopened, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"i-0", "i-1"} {
		if got, want := s.EventsOf(id), reopened.EventsOf(id); !reflect.DeepEqual(got, want) || len(want) != 6 {
			t.Errorf("EventsOf(%s): %d events, reopened %d, want 6 each and equal", id, len(got), len(want))
		}
	}
	var live, again []*Event
	if err := s.All(func(e *Event) error { live = append(live, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := reopened.All(func(e *Event) error { again = append(again, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, again) || len(live) != 12 {
		t.Errorf("All: %d events, reopened %d, want 12 each and equal", len(live), len(again))
	}
}

type answers struct {
	eventsOf map[string][]*Event
	all      []*Event
	xes      string
}

func storeAnswers(t *testing.T, s *Store) answers {
	t.Helper()
	a := answers{eventsOf: map[string][]*Event{}}
	for _, id := range append(s.InstanceIDs(), "", "unknown") {
		a.eventsOf[id] = s.EventsOf(id)
	}
	if err := s.All(func(e *Event) error { a.all = append(a.all, e); return nil }); err != nil {
		t.Fatal(err)
	}
	var xes bytes.Buffer
	for _, includeAll := range []bool{false, true} {
		if err := StreamXES(&xes, s, includeAll); err != nil {
			t.Fatal(err)
		}
	}
	a.xes = xes.String()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after queries: %v", err)
	}
	return a
}

// TestResidentReadsRaceCommitter reads the packed windows while the
// committers append to them and evict from them (run under -race in
// CI): EventsOf decodes under the read lock, All and the XES export
// from a snapshot after releasing it. Per-instance order holds
// throughout.
func TestResidentReadsRaceCommitter(t *testing.T) {
	s, err := NewStriped(memJournals(4), StoreOptions{Window: 16, QueueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 6, 300
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	ordered := func(evs []*Event) bool {
		for i := 1; i < len(evs); i++ {
			if evs[i].Data["seq"].(float64) <= evs[i-1].Data["seq"].(float64) {
				return false
			}
		}
		return true
	}
	for r := 0; r < 3; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					if evs := s.EventsOf(fmt.Sprintf("inst-%d", r)); !ordered(evs) {
						t.Errorf("EventsOf(inst-%d) out of order", r)
						return
					}
				case 1:
					byInst := map[string][]*Event{}
					if err := s.All(func(e *Event) error {
						byInst[e.InstanceID] = append(byInst[e.InstanceID], e)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
					for id, evs := range byInst {
						if !ordered(evs) {
							t.Errorf("All: %s out of order", id)
							return
						}
					}
				case 2:
					var buf bytes.Buffer
					if err := StreamXES(&buf, s, true); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			inst := fmt.Sprintf("inst-%d", w)
			for i := 0; i < perWriter; i++ {
				s.Enqueue(&Event{Type: ElementCompleted, Time: ts(i), InstanceID: inst,
					ElementID: "step", Data: map[string]any{"seq": i}})
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	for w := 0; w < writers; w++ {
		evs := s.EventsOf(fmt.Sprintf("inst-%d", w))
		if len(evs) != perWriter || !ordered(evs) {
			t.Fatalf("inst-%d: %d events (ordered %v), want %d in order", w, len(evs), ordered(evs), perWriter)
		}
	}
	if st := s.Stats(); st.Resident > 4*16 || st.Events != writers*perWriter {
		t.Errorf("stats %+v: want at most 64 resident of %d", st, writers*perWriter)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
