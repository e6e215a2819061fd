package history

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"bpms/internal/obs"
	"bpms/internal/storage"
)

// allEventTypes is in type-code order: a record's code is an index into
// it plus one. It repeats encode.go's table on purpose, so reordering
// that table (and with it every record on disk) fails the reference.
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

// referenceDecode is the oracle the decoders are held to: for a v2
// record, referenceDecodeV2; for a v1 record, the JSON encoding of an
// Event that journals held before v2, encoding/json, which read every
// journal before v2 and which Upgrade transcodes through.
func referenceDecode(payload []byte) (*Event, error) {
	if len(payload) > 0 && payload[0] == recordV2 {
		return referenceDecodeV2(payload)
	}
	e := &Event{}
	if err := json.Unmarshal(payload, e); err != nil {
		return nil, err
	}
	return e, nil
}

// referenceDecodeV2 reads a v2 record the plain way, with readers of
// its own, and takes the time through its RFC 3339 text: the event is
// what the v1 form of the same fields decodes to. It refuses a time
// RFC 3339 cannot write (a zone offset with seconds, a year past 9999).
func referenceDecodeV2(p []byte) (*Event, error) {
	rd := bytes.NewReader(p[1:])
	var errs []error
	str := func() string {
		n, err := binary.ReadUvarint(rd)
		if err == nil && n > uint64(rd.Len()) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			errs = append(errs, err)
			return ""
		}
		b := make([]byte, n)
		_, _ = rd.Read(b)
		return string(b)
	}
	e := &Event{}
	code, err := rd.ReadByte()
	errs = append(errs, err)
	switch {
	case code == 0:
		e.Type = EventType(str())
	case int(code) <= len(allEventTypes):
		e.Type = allEventTypes[code-1]
	default:
		errs = append(errs, fmt.Errorf("type code %d", code))
	}
	sec, err := binary.ReadVarint(rd)
	errs = append(errs, err)
	nsec, err := binary.ReadUvarint(rd)
	errs = append(errs, err)
	off, err := binary.ReadVarint(rd)
	errs = append(errs, err)
	if off%60 != 0 {
		errs = append(errs, fmt.Errorf("zone offset %ds", off))
	}
	text, err := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(off))).MarshalJSON()
	errs = append(errs, err)
	if err == nil {
		errs = append(errs, e.Time.UnmarshalJSON(text))
	}
	mask, err := rd.ReadByte()
	errs = append(errs, err)
	for i, dst := range []*string{&e.ProcessID, &e.InstanceID, &e.ElementID, &e.Element, &e.TaskID, &e.Actor} {
		if mask&(1<<i) != 0 {
			*dst = str()
		}
	}
	rest := p[len(p)-rd.Len():]
	switch {
	case mask >= 1<<7:
		errs = append(errs, fmt.Errorf("mask %#x", mask))
	case mask&(1<<6) != 0:
		errs = append(errs, json.Unmarshal(rest, &e.Data))
	case len(rest) > 0:
		errs = append(errs, fmt.Errorf("%d trailing bytes", len(rest)))
	}
	if len(e.Data) == 0 {
		e.Data = nil
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return e, nil
}

// checkDecodeAgainstReference is the decoder contract, on any input: a
// payload marked v2 keeps checkV2Contract; any other, a v1 record
// among them, is declined by DecodeEvent and peekEvent alike.
func checkDecodeAgainstReference(t *testing.T, payload []byte) {
	t.Helper()
	if len(payload) > 0 && payload[0] == recordV2 {
		checkV2Contract(t, payload)
		return
	}
	if e, err := DecodeEvent(payload); err == nil {
		t.Fatalf("DecodeEvent accepted %q, which is not a v2 record: %+v", payload, e)
	}
	if _, _, err := peekEvent(payload); err == nil {
		t.Fatalf("peek accepted %q, which is not a v2 record", payload)
	}
}

// checkV2Contract is the decoder contract on a payload marked v2: peek
// succeeds, with the decoded type and instance, whenever decode does,
// and otherwise only when decode rejected a value inside well-formed
// data (a number out of range); where the reference reads the record
// too, the two agree; and a decoded event re-encodes to a record that
// decodes to the same event.
func checkV2Contract(t *testing.T, payload []byte) {
	t.Helper()
	got, err := DecodeEvent(payload)
	typ, inst, perr := peekEvent(payload)
	if err != nil {
		if perr == nil {
			r, _ := scan(payload)
			var m map[string]any
			if r.data == nil || json.Unmarshal(r.data, &m) == nil {
				t.Fatalf("peek accepted %q, which fails to decode: %v", payload, err)
			}
		}
		return
	}
	if perr != nil || string(typ) != string(got.Type) || string(inst) != got.InstanceID {
		t.Fatalf("peek of %q = (%q, %q, %v), decode gives (%q, %q)", payload, typ, inst, perr, got.Type, got.InstanceID)
	}
	if ref, err := referenceDecodeV2(payload); err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("DecodeEvent disagrees with the reference on %q:\n got %+v\nwant %+v", payload, got, ref)
	}
	enc, err := AppendEncode(nil, got)
	if err != nil {
		t.Fatalf("decoded %q to %+v, which does not encode: %v", payload, got, err)
	}
	back, err := DecodeEvent(enc)
	if err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("round trip of %q via %q:\n got %+v (%v)\nwant %+v", payload, enc, back, err, got)
	}
}

// seedEvents covers every type code, the custom code, each optional
// field alone and together, escapes, non-ASCII text, zones and data.
func seedEvents() []*Event {
	var events []*Event
	for i, typ := range allEventTypes {
		events = append(events, &Event{Type: typ, Time: ts(i), ProcessID: "order", InstanceID: fmt.Sprintf("order-%d", i), ElementID: "approve"})
	}
	return append(events,
		&Event{Type: ProcessDeployed, Time: ts(1), ProcessID: "p"},
		&Event{Type: MessagePublished, Time: ts(2)},
		&Event{Type: TaskCompleted, Time: ts(3).Add(123456789), ProcessID: "order", InstanceID: "i-2",
			ElementID: "approve", Element: "Approve order", TaskID: "t-9", Actor: "alice",
			Data: map[string]any{"amount": 150.5, "ok": true, "tags": []any{"a", nil}, "n": map[string]any{}}},
		&Event{Type: ElementCompleted, Time: ts(4), InstanceID: "i-3", Data: map[string]any{"routing": true}},
		&Event{Type: TaskOffered, Time: ts(5), InstanceID: "i-4", Element: "Approve \"big\" order\n\t", Actor: "alice\\bob"},
		&Event{Type: MessagePublished, Time: ts(6), InstanceID: "ünï-1", Element: "ünïcödé — 事件 \u2028"},
		&Event{Type: TimerFired, Time: ts(7).In(time.FixedZone("", 2*3600+30*60)), InstanceID: "i-5"},
		&Event{Type: TimerFired, Time: ts(8).In(time.FixedZone("", -5*3600)), InstanceID: "i-6", Data: map[string]any{"k": "v"}},
		&Event{Index: 42, Type: VariableSet, Time: ts(9), InstanceID: "i-7"},
		&Event{Type: "custom.type", Time: time.Time{}, InstanceID: "i-8"},
		&Event{Type: "", Time: ts(10).In(time.FixedZone("named", 0)), Actor: "a"},
	)
}

// v2Variants derives, from one record AppendEncode writes, records it
// never writes: bad ones DecodeEvent must decline, and odd ones that
// still decode. None may panic the scanner.
func v2Variants(t testing.TB) (bad, odd map[string][]byte) {
	t.Helper()
	base, err := AppendEncode(nil, &Event{Type: TaskCreated, Time: ts(1), InstanceID: "i-1"})
	if err != nil {
		t.Fatal(err)
	}
	mask := len(base) - 1 - 1 - len("i-1") // mask, the length, the string
	with := func(i int, b byte) []byte {
		p := bytes.Clone(base)
		p[i] = b
		return p
	}
	withData := func(data string) []byte {
		return append(with(mask, base[mask]|maskData), data...)
	}
	header := []byte{recordV2, 1, 0} // process.deployed at Unix second 0
	bad = map[string][]byte{
		"v2-truncated-varint":     base[:4],
		"v2-overlong-varint":      append(bytes.Clone(base[:2]), bytes.Repeat([]byte{0xff}, 11)...),
		"v2-type-code-past-table": with(1, byte(len(allEventTypes)+1)),
		"v2-unknown-mask-bits":    with(mask, base[mask]|0x80),
		"v2-length-past-end":      with(mask+1, 200),
		"v2-trailing-bytes":       append(bytes.Clone(base), 'x'),
		"v2-non-json-data":        withData("{not json"),
		"v2-data-not-object":      withData("[1]"),
		"v2-data-number-range":    withData(`{"a":1e999}`),
		"v2-nanoseconds-past-1s":  append(binary.AppendUvarint(bytes.Clone(header), uint64(time.Second)), 0, 0),
		"v2-custom-name-past-end": {recordV2, 0, 9, 'x'},
		"v2-marker-only":          {recordV2},
	}
	odd = map[string][]byte{
		"v2-data-empty-object":      withData("{}"),
		"v2-empty-string-present":   append(bytes.Clone(header), 0, 0, 1<<instanceField, 0),
		"v2-offset-with-seconds":    append(binary.AppendVarint(append(bytes.Clone(header), 0), 3601), 0),
		"v2-custom-type-known-name": append([]byte{recordV2, 0, byte(len(TaskCreated))}, append([]byte(TaskCreated), base[2:]...)...),
	}
	return bad, odd
}

func decodeSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	var full [2][]byte // the all-fields event, v2 and v1
	for _, e := range seedEvents() {
		v2, err := AppendEncode(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, v2, v1)
		if e.TaskID != "" {
			full = [2][]byte{v2, v1}
		}
	}
	for _, s := range []string{
		// v1 layouts encoding/json reads, and v1 records it rejects.
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
	bad, odd := v2Variants(t)
	for _, set := range []map[string][]byte{bad, odd} {
		for _, name := range slices.Sorted(maps.Keys(set)) {
			seeds = append(seeds, set[name])
		}
	}
	// Truncations of the all-fields record, every byte of v2 and every
	// seventh of v1.
	for cut := 0; cut < len(full[0]); cut++ {
		seeds = append(seeds, full[0][:cut])
	}
	for cut := 0; cut < len(full[1]); cut += 7 {
		seeds = append(seeds, full[1][:cut])
	}
	return seeds
}

// TestDecodeEventMatchesEncodingJSON: v2 records decode as the
// reference reads them, through the RFC 3339 text of their time; every
// v1 record, in any layout encoding/json reads, is declined, and
// decodes once Upgrade has transcoded it.
func TestDecodeEventMatchesEncodingJSON(t *testing.T) {
	for _, seed := range decodeSeeds(t) {
		checkDecodeAgainstReference(t, seed)
		checkUpgradeRecord(t, seed)
	}
	for _, e := range seedEvents() {
		v2, _ := AppendEncode(nil, e)
		if _, err := DecodeEvent(v2); err != nil {
			t.Errorf("the encoder's own output %q does not decode: %v", v2, err)
		}
		if _, _, err := peekEvent(v2); err != nil {
			t.Errorf("peek declined the encoder's own output %q: %v", v2, err)
		}
		v1, _ := json.Marshal(e)
		if _, err := DecodeEvent(v1); !errors.Is(err, errNotV2) {
			t.Errorf("DecodeEvent of the v1 record %q: %v, want %v", v1, err, errNotV2)
		}
	}
	bad, odd := v2Variants(t)
	for name, p := range bad {
		if _, err := DecodeEvent(p); err == nil {
			t.Errorf("%s: %q decodes", name, p)
		}
	}
	for name, p := range odd {
		if _, err := DecodeEvent(p); err != nil {
			t.Errorf("%s: %q: %v", name, p, err)
		}
	}
}

// TestV2DecodesLikeV1: a v2 record decodes to exactly the event its v1
// (JSON) form decodes to, down to the time's Location: UTC for a zero
// offset, Local where Local had the offset at that instant, an unnamed
// fixed zone otherwise. The one difference is pinned: invalid UTF-8 in
// a string is kept byte for byte, where encoding/json maps it to U+FFFD.
func TestV2DecodesLikeV1(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("LCL", 3600)
	t.Cleanup(func() { time.Local = saved })
	events := append(seedEvents(),
		&Event{Type: TimerFired, Time: ts(1).In(time.Local), InstanceID: "local"},
		&Event{Type: TimerFired, Time: ts(1).In(time.FixedZone("", 3600)), InstanceID: "as-local"},
		&Event{Type: TimerFired, Time: ts(1).In(time.FixedZone("", 7200)), InstanceID: "fixed"},
		&Event{Type: TimerFired, Time: ts(1).In(time.FixedZone("Z0", 0)), InstanceID: "utc"},
	)
	for _, e := range events {
		v1, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceDecode(v1)
		if err != nil {
			t.Fatal(err)
		}
		want.Index = 0
		v2, err := AppendEncode(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEvent(v2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("v2 %q decodes to\n %+v (%v)\nv1 %s to\n %+v (%v)", v2, got, got.Time.Location(), v1, want, want.Time.Location())
		}
	}

	e := &Event{Type: TaskCreated, Time: ts(1), InstanceID: "i-\xff", Actor: "a\xffb"}
	v2, _ := AppendEncode(nil, e)
	got, err := DecodeEvent(v2)
	if err != nil || got.InstanceID != e.InstanceID || got.Actor != e.Actor {
		t.Errorf("v2 decode of invalid UTF-8 = %+v, %v; want the bytes kept", got, err)
	}
	if _, inst, err := peekEvent(v2); err != nil || string(inst) != e.InstanceID {
		t.Errorf("peek of invalid UTF-8 = %q, %v; want the bytes decode keeps", inst, err)
	}
	v1, _ := json.Marshal(e)
	if ref, err := referenceDecode(v1); err != nil || ref.Actor != "a\ufffdb" {
		t.Errorf("encoding/json decode of invalid UTF-8 = %+v, %v; want U+FFFD", ref, err)
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
// replay: every record decoded by the reference decoder and passed, with
// its type and instance, through indexLocked, which evicts as it goes.
// Beside it, every event in stripe order: the answers of All and,
// filtered, of EventsOf.
func referenceStore(t *testing.T, journals []storage.Journal, window int) (s *Store, all []*Event) {
	t.Helper()
	s = &Store{window: window}
	for _, j := range journals {
		st := newStripe(j, window, obs.HistoryStripeMetrics{})
		err := j.Replay(1, func(index uint64, payload []byte) error {
			e, err := referenceDecode(payload)
			if err != nil {
				return err
			}
			e.Index = index
			st.indexLocked(index, payload, e.Type, e.InstanceID)
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
// prefix, in-place peek — to the reference, state and answers.
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
	writer, err := NewStriped(journals, StoreOptions{Window: window})
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
			e.Element = "Approve \"big\" order"
		case 3:
			e.Actor = "zoë"
		}
		if err := writer.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// The writer is abandoned unclosed, its idle committers with it:
	// Close would close the journals the two readers need.
	checkReopen(t, journals, window, n)
}

// checkReopen opens journals holding n records twice, with NewStriped
// and with referenceStore, and holds the first to the second: stripe
// state, stats and the answer of every query.
func checkReopen(t *testing.T, journals []storage.Journal, window, n int) {
	t.Helper()
	got, err := NewStriped(journals, StoreOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	want, all := referenceStore(t, journals, window)

	for i, ws := range want.stripes {
		gs := got.stripes[i]
		if gs.count != ws.count || gs.evicted != ws.evicted || gs.res.first != ws.res.first {
			t.Errorf("stripe %d: count/evicted/first resident = %d/%d/%d, want %d/%d/%d",
				i, gs.count, gs.evicted, gs.res.first, ws.count, ws.evicted, ws.res.first)
		}
		if g, w := residentRecords(gs), residentRecords(ws); !reflect.DeepEqual(g, w) {
			t.Errorf("stripe %d: resident records differ (%d vs %d records)", i, len(g), len(w))
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
	types := append([]EventType(nil), allEventTypes...)
	for _, e := range all {
		types = append(types, e.Type)
	}
	for _, typ := range types {
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

// residentRecords returns the bytes of a stripe's resident records,
// oldest first.
func residentRecords(st *stripe) [][]byte {
	res := st.res.snapshot()
	out := [][]byte{}
	for _, loc := range res.recs {
		out = append(out, res.record(loc))
	}
	return out
}

// TestPeekAllocatesNothing: the count-only replay and EventsOf's skip
// read a record's type and instance where they lie.
func TestPeekAllocatesNothing(t *testing.T) {
	for _, e := range []*Event{
		{Type: ElementCompleted, Time: ts(1), ProcessID: "order", InstanceID: "order-1", ElementID: "approve"},
		{Type: ElementCompleted, Time: ts(2), InstanceID: "zoë-1", Data: map[string]any{"routing": true}},
		{Type: "custom.type", Time: ts(3), InstanceID: "order-2"},
	} {
		payload, err := AppendEncode(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if typ, inst, err := peekEvent(payload); err != nil || string(inst) != e.InstanceID || string(typ) != string(e.Type) {
				t.Fatalf("peek of %q = %q, %q, %v", payload, typ, inst, err)
			}
		})
		if allocs != 0 {
			t.Errorf("peek of %q allocates %.0f times", payload, allocs)
		}
	}
}
