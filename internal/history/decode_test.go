package history

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bpms/internal/obs"
	"bpms/internal/storage"
)

var allEventTypes = []EventType{
	ProcessDeployed,
	InstanceStarted, InstanceCompleted, InstanceCancelled, InstanceFaulted,
	ElementActivated, ElementCompleted, ElementFaulted,
	TaskCreated, TaskOffered, TaskAllocated, TaskStarted, TaskCompleted,
	TaskFailed, TaskSkipped, TaskDelegated, TaskEscalated,
	TimerScheduled, TimerFired, TimerCancelled,
	MessagePublished, MessageCorrelated, MessageBuffered,
	VariableSet, IncidentRaised, SLAViolation,
}

// referenceDecode is the decoder every journal was read with before
// the single-pass one: the oracle DecodeEvent must agree with.
func referenceDecode(payload []byte) (*Event, error) {
	e := &Event{}
	if err := json.Unmarshal(payload, e); err != nil {
		return nil, err
	}
	return e, nil
}

// checkDecodeAgainstReference is the decoder contract, on any input:
// the fast path declines or returns what encoding/json returns; peek
// declines or returns the type and instance of a record that decodes;
// DecodeEvent succeeds exactly when encoding/json does; and an event
// that decodes survives Encode → DecodeEvent.
func checkDecodeAgainstReference(t *testing.T, payload []byte) {
	t.Helper()
	ref, refErr := referenceDecode(payload)
	if fast, ok := decodeFast(payload); ok {
		if refErr != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v): %q", refErr, payload)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path disagrees on %q:\n got %+v\nwant %+v", payload, fast, ref)
		}
	}
	if typ, inst, ok := peekEvent(payload); ok && refErr == nil {
		if string(typ) != string(ref.Type) || string(inst) != ref.InstanceID {
			t.Fatalf("peek of %q = (%q, %q), want (%q, %q)", payload, typ, inst, ref.Type, ref.InstanceID)
		}
	}
	got, err := DecodeEvent(payload)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeEvent(%q) error = %v, encoding/json error = %v", payload, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("DecodeEvent disagrees on %q:\n got %+v\nwant %+v", payload, got, ref)
	}
	enc, err := ref.Encode()
	if err != nil {
		return // Data that decoded but cannot be marshalled again does not exist; be lenient
	}
	back, err := DecodeEvent(enc)
	if err != nil {
		t.Fatalf("re-encoded %q as %q, which fails to decode: %v", payload, enc, err)
	}
	// The encoder omits an empty data object and may spell a zone
	// differently (+00:00 as Z); neither changes the event.
	if !back.Time.Equal(ref.Time) {
		t.Fatalf("round trip of %q moved the time: %v → %v", payload, ref.Time, back.Time)
	}
	back.Time = ref.Time
	if len(ref.Data) == 0 {
		back.Data = ref.Data
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("round trip of %q via %q:\n got %+v\nwant %+v", payload, enc, back, ref)
	}
}

func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	add := func(e *Event) {
		p, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	for i, typ := range allEventTypes {
		add(&Event{Type: typ, Time: ts(i), ProcessID: "order", InstanceID: fmt.Sprintf("order-%d", i), ElementID: "approve"})
	}
	add(&Event{Type: ProcessDeployed, Time: ts(1), ProcessID: "p"})
	add(&Event{Type: MessagePublished, Time: ts(2)})
	add(&Event{Type: TaskCompleted, Time: ts(3).Add(123456789), ProcessID: "order", InstanceID: "i-2",
		ElementID: "approve", Element: "Approve order", TaskID: "t-9", Actor: "alice",
		Data: map[string]any{"amount": 150.5, "ok": true, "tags": []any{"a", nil}, "n": map[string]any{}}})
	add(&Event{Type: ElementCompleted, Time: ts(4), InstanceID: "i-3", Data: map[string]any{"routing": true}})
	add(&Event{Type: TaskOffered, Time: ts(5), InstanceID: "i-4", Element: "Approve \"big\" order\n\t", Actor: "alice\\bob"})
	add(&Event{Type: MessagePublished, Time: ts(6), InstanceID: "ünï-1", Element: "ünïcödé — 事件 \u2028"})
	add(&Event{Type: TimerFired, Time: ts(7).In(time.FixedZone("", 2*3600+30*60)), InstanceID: "i-5"})
	add(&Event{Type: TimerFired, Time: ts(8).In(time.FixedZone("", -5*3600)), InstanceID: "i-6", Data: map[string]any{"k": "v"}})
	add(&Event{Index: 42, Type: VariableSet, Time: ts(9), InstanceID: "i-7"})
	add(&Event{Type: "custom.type", Time: time.Time{}, InstanceID: "i-8"})
	for _, s := range []string{
		// Layouts encoding/json reads and the fast path must decline.
		`{"time":"2026-06-01T12:00:00Z","type":"task.created","instanceId":"i-1"}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","elementId":"e","instanceId":"i-1"}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","instanceId":"i-1","instanceId":"i-2"}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","instanceId":"i-1","extra":1}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":{"a":1},"instanceId":"i-1"}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":{"a":1} }`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":null}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":{"a":1e999}}`,
		`{ "type":"task.created","time":"2026-06-01T12:00:00Z"}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z"} `,
		`{"Type":"task.created","TIME":"2026-06-01T12:00:00Z"}`,
		`{"type":"task.created","time":null}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00+00:00","instanceId":"i-1"}`,
		`{"type":"task.created","time":"2026-06-01 12:00:00Z"}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z\"","instanceId":"i-1"}`,
		`{"type":"task\u002ecreated","time":"2026-06-01T12:00:00Z"}`,
		"{\"type\":\"task.created\",\"time\":\"2026-06-01T12:00:00Z\",\"actor\":\"a\x01b\"}",
		"{\"type\":\"task.created\",\"time\":\"2026-06-01T12:00:00Z\",\"actor\":\"a\xffb\"}",
		`{"type":"","time":"2026-06-01T12:00:00Z","processId":""}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":{`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":{}`,
		`{"type":"task.created","time":"2026-06-01T12:00:00Z","data":{}}`,
		`{"type":"task.created","time":"`,
		`{"type":"task.created"}`,
		`{"type":"`,
		`{}`, `null`, `[]`, ``, `{broken`,
	} {
		seeds = append(seeds, []byte(s))
	}
	// Truncations of one full record.
	full := seeds[len(allEventTypes)+2]
	for cut := 0; cut < len(full); cut += 7 {
		seeds = append(seeds, full[:cut])
	}
	return seeds
}

func TestDecodeEventMatchesEncodingJSON(t *testing.T) {
	for _, seed := range decodeSeeds(t) {
		checkDecodeAgainstReference(t, seed)
	}
	// What the encoder writes takes the fast path, whatever the fields.
	for _, seed := range decodeSeeds(t)[:len(allEventTypes)+4] {
		if _, ok := decodeFast(seed); !ok {
			t.Errorf("fast path declined the encoder's own output %q", seed)
		}
		if _, _, ok := peekEvent(seed); !ok {
			t.Errorf("peek declined the encoder's own output %q", seed)
		}
	}
}

func FuzzDecodeEvent(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeAgainstReference(t, payload)
	})
}

// referenceStore is what NewStriped built before the count-only prefix
// replay: every record decoded by encoding/json and passed through
// indexLocked, which evicts as it goes. Beside it, every event in
// stripe order: the answers of All and, filtered, of EventsOf.
func referenceStore(t *testing.T, journals []storage.Journal, window int) (s *Store, all []*Event) {
	t.Helper()
	s = &Store{window: window, syncs: true}
	for _, j := range journals {
		st := newStripe(j, window, obs.HistoryStripeMetrics{})
		err := j.Replay(1, func(index uint64, payload []byte) error {
			e, err := referenceDecode(payload)
			if err != nil {
				return err
			}
			e.Index = index
			st.indexLocked(e)
			all = append(all, e)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s.stripes = append(s.stripes, st)
	}
	return s, all
}

// TestRecoverWindowEquivalence reopens seeded journals of sizes around
// the window edge and holds the store NewStriped builds — count-only
// prefix, single-pass decoder — to the reference, state and answers.
func TestRecoverWindowEquivalence(t *testing.T) {
	const w = 16
	sizes := []int{0, 1, w - 1, w, w + 1, 2 * w, 4*w - 1, 4 * w, 4*w + 1, 40 * w}
	for _, window := range []int{0, 1, w} {
		for _, stripes := range []int{1, 4} {
			for _, n := range sizes {
				seed := int64(1000*window + 100*stripes + n)
				t.Run(fmt.Sprintf("window=%d/stripes=%d/n=%d", window, stripes, n), func(t *testing.T) {
					checkRecoverEquivalence(t, rand.New(rand.NewSource(seed)), window, stripes, n)
				})
			}
		}
	}
}

func checkRecoverEquivalence(t *testing.T, r *rand.Rand, window, stripes, n int) {
	journals := memJournals(stripes)
	writer, err := NewStriped(journals, StoreOptions{Window: window, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	instances := 1 + n/6
	for i := 0; i < n; i++ {
		e := &Event{
			Type:      allEventTypes[r.Intn(len(allEventTypes))],
			Time:      ts(i),
			ProcessID: "order",
			ElementID: fmt.Sprintf("el-%d", r.Intn(5)),
		}
		if r.Intn(12) > 0 { // the rest are instance-less (deployments)
			e.InstanceID = fmt.Sprintf("order-%d", r.Intn(instances))
		}
		switch r.Intn(8) {
		case 0:
			e.Data = map[string]any{"routing": true}
		case 1:
			e.Data = map[string]any{"amount": float64(r.Intn(1000)) / 4, "tags": []any{"a", "b"}}
		case 2:
			e.Element = "Approve \"big\" order" // escaped: the fallback decoder, also in the prefix
		case 3:
			e.Actor = "zoë"
		}
		if err := writer.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// The writer (no goroutines in Sync mode) is abandoned unclosed: the
	// journals stay open for the two readers.
	got, err := NewStriped(journals, StoreOptions{Window: window, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	want, all := referenceStore(t, journals, window)

	for i, ws := range want.stripes {
		gs := got.stripes[i]
		if gs.count != ws.count || gs.evicted != ws.evicted || gs.ramFirst != ws.ramFirst {
			t.Errorf("stripe %d: count/evicted/ramFirst = %d/%d/%d, want %d/%d/%d",
				i, gs.count, gs.evicted, gs.ramFirst, ws.count, ws.evicted, ws.ramFirst)
		}
		if !reflect.DeepEqual(gs.ring, ws.ring) {
			t.Errorf("stripe %d: resident ring differs (%d vs %d events)", i, len(gs.ring), len(ws.ring))
		}
		if !reflect.DeepEqual(gs.byInstance, ws.byInstance) {
			t.Errorf("stripe %d: byInstance differs", i)
		}
		if !reflect.DeepEqual(gs.instCount, ws.instCount) {
			t.Errorf("stripe %d: instCount = %v, want %v", i, gs.instCount, ws.instCount)
		}
		if !reflect.DeepEqual(gs.byType, ws.byType) {
			t.Errorf("stripe %d: byType = %v, want %v", i, gs.byType, ws.byType)
		}
	}
	gotStats, wantStats := got.Stats(), want.Stats()
	if gotStats.RecoveredEvents != n {
		t.Errorf("RecoveredEvents = %d, want %d", gotStats.RecoveredEvents, n)
	}
	gotStats.RecoverySeconds, gotStats.RecoveredEvents = 0, 0
	if gotStats != wantStats {
		t.Errorf("Stats = %+v, want %+v", gotStats, wantStats)
	}
	if got.Count() != want.Count() || got.Count() != n {
		t.Errorf("Count = %d, reference %d, appended %d", got.Count(), want.Count(), n)
	}
	for _, typ := range allEventTypes {
		if g, w := got.CountByType(typ), want.CountByType(typ); g != w {
			t.Errorf("CountByType(%s) = %d, want %d", typ, g, w)
		}
	}
	ids := want.InstanceIDs()
	if !reflect.DeepEqual(got.InstanceIDs(), ids) {
		t.Errorf("InstanceIDs = %v, want %v", got.InstanceIDs(), ids)
	}
	for _, id := range append(ids, "order-unknown") {
		var w []*Event
		for _, e := range all {
			if e.InstanceID == id {
				w = append(w, e)
			}
		}
		if g := got.EventsOf(id); !reflect.DeepEqual(g, w) {
			t.Errorf("EventsOf(%q): %d events, want %d", id, len(g), len(w))
		}
	}
	var streamed []*Event
	if err := got.All(func(e *Event) error { streamed = append(streamed, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, all) {
		t.Errorf("All: %d events, want %d", len(streamed), len(all))
	}
	if err := got.Flush(); err != nil { // a failed prefix replay would surface here
		t.Errorf("Flush after queries: %v", err)
	}
}

// TestPeekAllocatesNothing: the count-only replay and EventsOf's skip
// read a record's type and instance where they lie.
func TestPeekAllocatesNothing(t *testing.T) {
	for _, e := range []*Event{
		{Type: ElementCompleted, Time: ts(1), ProcessID: "order", InstanceID: "order-1", ElementID: "approve"},
		{Type: ElementCompleted, Time: ts(2), InstanceID: "zoë-1", Data: map[string]any{"routing": true}},
	} {
		payload, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, inst, ok := peekEvent(payload); !ok || string(inst) != e.InstanceID {
				t.Fatalf("peek of %q = %q, %v", payload, inst, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("peek of %q allocates %.0f times", payload, allocs)
		}
	}
}

// TestDecodeFallbackIsCounted: a record outside the canonical layout
// still decodes, on every replay path, and each time shows in the
// stripe's fallback counter.
func TestDecodeFallbackIsCounted(t *testing.T) {
	j := storage.NewMemJournal()
	for i, e := range []*Event{
		{Type: TaskOffered, Time: ts(1), InstanceID: "i-1", Element: "Approve \"big\" order"}, // escaped
		{Type: TaskAllocated, Time: ts(2), InstanceID: "i-1", Actor: "alice"},
		{Type: TaskCompleted, Time: ts(3), InstanceID: "i-2"},
		{Type: InstanceCompleted, Time: ts(4), InstanceID: "i-2"},
	} {
		payload, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append(payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	m := obs.New()
	fallbacks := m.HistoryStripe(0).Fallback
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: 2, Sync: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := fallbacks.Value(); got != 1 { // the count-only prefix met the escaped record
		t.Errorf("fallbacks after open = %d, want 1", got)
	}
	if evs := s.EventsOf("i-1"); len(evs) != 2 || evs[0].Element != "Approve \"big\" order" {
		t.Errorf("EventsOf(i-1) = %v", evs)
	}
	if got := fallbacks.Value(); got != 2 {
		t.Errorf("fallbacks after EventsOf = %d, want 2", got)
	}
	if err := s.All(func(*Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := fallbacks.Value(); got != 3 {
		t.Errorf("fallbacks after All = %d, want 3", got)
	}
}
