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

// referenceDecode is the oracle DecodeEvent must agree with: for a v1
// record, encoding/json, which read every journal before the
// single-pass decoder; for a v2 record, referenceDecodeV2.
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

// checkDecodeAgainstReference is the decoder contract, on any input. A
// payload marked v2 keeps checkV2Contract. For any other, the v1
// contract: the fast path declines or returns what encoding/json
// returns; peek declines or returns the type and instance of a record
// that decodes; DecodeEvent succeeds exactly when encoding/json does
// and counts as a fallback exactly when the fast path declined; and an
// event that decodes survives Encode → DecodeEvent.
func checkDecodeAgainstReference(t *testing.T, payload []byte) {
	t.Helper()
	if len(payload) > 0 && payload[0] == recordV2 {
		checkV2Contract(t, payload)
		return
	}
	ref, refErr := referenceDecode(payload)
	fast, fastOK := decodeFast(payload)
	if fastOK {
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
	got, fallback, err := decodeEvent(payload)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("DecodeEvent(%q) error = %v, encoding/json error = %v", payload, err, refErr)
	}
	if fallback == fastOK {
		t.Fatalf("decode of %q: fallback = %v, fast path took it = %v", payload, fallback, fastOK)
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
	// A v2 record stores no index (the journal position is the index),
	// and the same instant may come back in another Location: a JSON
	// "+00:00" is read as Local or an unnamed zone, a zero offset in v2
	// as UTC. The encoder also omits an empty data object.
	if !back.Time.Equal(ref.Time) {
		t.Fatalf("round trip of %q moved the time: %v → %v", payload, ref.Time, back.Time)
	}
	back.Time, back.Index = ref.Time, ref.Index
	if len(ref.Data) == 0 {
		back.Data = ref.Data
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("round trip of %q via %q:\n got %+v\nwant %+v", payload, enc, back, ref)
	}
}

// checkV2Contract is the decoder contract on a payload marked v2: it
// never reaches encoding/json; peek succeeds, with the decoded type and
// instance, whenever decode does, and otherwise only when decode
// rejected a value inside well-formed data (a number out of range);
// where the reference reads the record too, the two agree; and a
// decoded event re-encodes to a record that decodes to the same event.
func checkV2Contract(t *testing.T, payload []byte) {
	t.Helper()
	got, fallback, err := decodeEvent(payload)
	if fallback {
		t.Fatalf("v2 record %q went to encoding/json", payload)
	}
	typ, inst, peeked := peekEvent(payload)
	if err != nil {
		if peeked {
			r, _ := scanRecord(payload)
			var m map[string]any
			if r.data == nil || json.Unmarshal(r.data, &m) == nil {
				t.Fatalf("peek accepted %q, which fails to decode: %v", payload, err)
			}
		}
		return
	}
	if !peeked || string(typ) != string(got.Type) || string(inst) != got.InstanceID {
		t.Fatalf("peek of %q = (%q, %q, %v), decode gives (%q, %q)", payload, typ, inst, peeked, got.Type, got.InstanceID)
	}
	if ref, err := referenceDecodeV2(payload); err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("DecodeEvent disagrees with the reference on %q:\n got %+v\nwant %+v", payload, got, ref)
	}
	enc, err := got.Encode()
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
	base, err := (&Event{Type: TaskCreated, Time: ts(1), InstanceID: "i-1"}).Encode()
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
		v2, err := e.Encode()
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

func TestDecodeEventMatchesEncodingJSON(t *testing.T) {
	for _, seed := range decodeSeeds(t) {
		checkDecodeAgainstReference(t, seed)
	}
	for i, e := range seedEvents() {
		// What the encoder writes is a v2 record, whatever the fields.
		v2, _ := e.Encode()
		if _, ok := decodeFast(v2); !ok {
			t.Errorf("the encoder's own output %q does not decode", v2)
		}
		if _, _, ok := peekEvent(v2); !ok {
			t.Errorf("peek declined the encoder's own output %q", v2)
		}
		// What the v1 encoder wrote for a plain event takes the fast path.
		if i >= len(allEventTypes) {
			continue
		}
		v1, _ := json.Marshal(e)
		if _, ok := decodeFast(v1); !ok {
			t.Errorf("fast path declined the v1 record %q", v1)
		}
		if _, _, ok := peekEvent(v1); !ok {
			t.Errorf("peek declined the v1 record %q", v1)
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
		v2, err := e.Encode()
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
	v2, _ := e.Encode()
	got, err := DecodeEvent(v2)
	if err != nil || got.InstanceID != e.InstanceID || got.Actor != e.Actor {
		t.Errorf("v2 decode of invalid UTF-8 = %+v, %v; want the bytes kept", got, err)
	}
	if _, inst, ok := peekEvent(v2); !ok || string(inst) != e.InstanceID {
		t.Errorf("peek of invalid UTF-8 = %q, %v; want the bytes decode keeps", inst, ok)
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
// replay: every record decoded by the reference decoder and passed
// through indexLocked, which evicts as it goes. Beside it, every event
// in stripe order: the answers of All and, filtered, of EventsOf.
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
			e.Element = "Approve \"big\" order"
		case 3:
			e.Actor = "zoë"
		}
		if err := writer.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// The writer (no goroutines in Sync mode) is abandoned unclosed: the
	// journals stay open for the two readers.
	checkReopen(t, journals, window, n)
}

// checkReopen opens journals holding n records twice, with NewStriped
// and with referenceStore, and holds the first to the second: stripe
// state, stats and the answer of every query.
func checkReopen(t *testing.T, journals []storage.Journal, window, n int) {
	t.Helper()
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

// TestPeekAllocatesNothing: the count-only replay and EventsOf's skip
// read a record's type and instance where they lie, in either format.
func TestPeekAllocatesNothing(t *testing.T) {
	for _, e := range []*Event{
		{Type: ElementCompleted, Time: ts(1), ProcessID: "order", InstanceID: "order-1", ElementID: "approve"},
		{Type: ElementCompleted, Time: ts(2), InstanceID: "zoë-1", Data: map[string]any{"routing": true}},
		{Type: "custom.type", Time: ts(3), InstanceID: "order-2"},
	} {
		v2, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		v1, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range [][]byte{v2, v1} {
			allocs := testing.AllocsPerRun(100, func() {
				if typ, inst, ok := peekEvent(payload); !ok || string(inst) != e.InstanceID || string(typ) != string(e.Type) {
					t.Fatalf("peek of %q = %q, %q, %v", payload, typ, inst, ok)
				}
			})
			if allocs != 0 {
				t.Errorf("peek of %q allocates %.0f times", payload, allocs)
			}
		}
	}
}

// TestDecodeFallbackIsCounted: a v1 record outside the canonical layout
// still decodes, on every replay path, and each time shows in the
// stripe's fallback counter; v2 records never do, whatever they hold.
func TestDecodeFallbackIsCounted(t *testing.T) {
	j := storage.NewMemJournal()
	for i, rec := range []struct {
		e  *Event
		v1 bool
	}{
		{&Event{Type: TaskOffered, Time: ts(1), InstanceID: "i-1", Element: "Approve \"big\" order"}, true}, // escaped
		{&Event{Type: TaskAllocated, Time: ts(2), InstanceID: "i-1", Element: "Approve \"big\" order", Actor: "alice"}, false},
		{&Event{Type: TaskCompleted, Time: ts(3), InstanceID: "i-2"}, true}, // canonical
		{&Event{Type: InstanceCompleted, Time: ts(4), InstanceID: "i-2"}, false},
	} {
		payload, err := rec.e.Encode()
		if rec.v1 {
			payload, err = json.Marshal(rec.e)
		}
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
	if evs := s.EventsOf("i-1"); len(evs) != 2 || evs[0].Element != "Approve \"big\" order" || evs[1].Element != evs[0].Element {
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
