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
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"bpms/internal/binrec"
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
	// Bit 7: the instance ID is the process ID, "-" and a uvarint n ≥ 1
	// in decimal, read where the instance string would be.
	numbered := mask&(1<<7) != 0
	if numbered && (mask&1 == 0 || mask&2 != 0) {
		errs = append(errs, fmt.Errorf("mask %#x: a numbered instance needs the process and no instance string", mask))
	}
	for i, dst := range []*string{&e.ProcessID, &e.InstanceID, &e.ElementID, &e.Element, &e.TaskID, &e.Actor} {
		switch {
		case i == 1 && numbered:
			n, err := binary.ReadUvarint(rd)
			if err == nil && n == 0 {
				err = errors.New("instance number 0")
			}
			errs = append(errs, err)
			*dst = e.ProcessID + "-" + strconv.FormatUint(n, 10)
		case mask&(1<<i) != 0:
			*dst = str()
		}
	}
	rest := p[len(p)-rd.Len():]
	switch {
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
	var buf []byte
	if _, _, err := peekEvent(payload, &buf); err == nil {
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
	var buf []byte
	typ, inst, perr := peekEvent(payload, &buf)
	if err != nil {
		if perr == nil {
			var r record
			_ = r.scan(payload)
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
	events = append(events,
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
	// Instance IDs around the numbered form: only process + "-" + n,
	// n ≥ 1 in canonical decimal that fits 64 bits, is numbered.
	for i, id := range []struct{ process, instance string }{
		{"order", "order-1"}, {"order", "order-18446744073709551615"},
		{"order", "order-18446744073709551616"}, {"order", "order-007"},
		{"order", "order-0"}, {"order", "order-"}, {"order", "order"},
		{"order", "order-1x"}, {"order", "order--1"}, {"order", "order-+1"},
		{"order", "orders-1"}, {"order", "other-1"}, {"a-b", "a-b-3"},
		{"", "-1"}, {"ünï", "ünï-42"}, {"order", "order-١"},
	} {
		events = append(events, &Event{Type: ElementCompleted, Time: ts(11 + i), ProcessID: id.process,
			InstanceID: id.instance, ElementID: "approve", Data: map[string]any{"n": float64(i)}})
	}
	return events
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
	// numbered is header, a zero nanosecond and offset, mask, and the rest.
	numbered := func(mask byte, rest ...byte) []byte {
		return append(append(bytes.Clone(header), 0, 0, mask), rest...)
	}
	const process = 1 << 0
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
		// A numbered instance with no process, beside an instance
		// string, numbered 0, or with its number cut or overflowing.
		"v2-seq-without-process":      numbered(maskSeq, 5),
		"v2-seq-with-instance-string": numbered(maskSeq|process|1<<instanceField, 1, 'p', 1, 'x', 5),
		"v2-seq-zero":                 numbered(maskSeq|process, 1, 'p', 0),
		"v2-seq-truncated":            numbered(maskSeq|process, 1, 'p'),
		"v2-seq-overflowing-varint":   numbered(maskSeq|process, append([]byte{1, 'p'}, bytes.Repeat([]byte{0xff}, 10)...)...),
	}
	odd = map[string][]byte{
		"v2-data-empty-object":      withData("{}"),
		"v2-empty-string-present":   append(bytes.Clone(header), 0, 0, 1<<instanceField, 0),
		"v2-offset-with-seconds":    append(binary.AppendVarint(append(bytes.Clone(header), 0), 3601), 0),
		"v2-custom-type-known-name": append([]byte{recordV2, 0, byte(len(TaskCreated))}, append([]byte(TaskCreated), base[2:]...)...),
		// The literal form of an ID the encoder numbers, as every journal
		// written before numbered IDs holds it, and a padded number.
		"v2-literal-numbered-id":    numbered(process|1<<instanceField, 1, 'p', 3, 'p', '-', '5'),
		"v2-seq-non-minimal-varint": numbered(maskSeq|process, 1, 'p', 0x85, 0x00),
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
		var buf []byte
		if _, _, err := peekEvent(v2, &buf); err != nil {
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
	var buf []byte
	if _, inst, err := peekEvent(v2, &buf); err != nil || string(inst) != e.InstanceID {
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

// referenceStore is what NewStriped built before segment index files
// and the in-place peek: every record decoded by the reference decoder
// and passed, with its type and instance, through indexLocked, which
// evicts as it goes.
// Beside it, every event in stripe order: the answers of All and,
// filtered, of EventsOf.
func referenceStore(t *testing.T, journals []storage.Journal, window int) (s *Store, all []*Event) {
	t.Helper()
	s = &Store{window: window}
	for _, j := range journals {
		st := newStripe(j, window, nil)
		err := j.Replay(1, func(index uint64, payload []byte) error {
			e, err := referenceDecode(payload)
			if err != nil {
				return err
			}
			e.Index = index
			st.indexLocked(index, payload, e.InstanceID)
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
// the window edge and holds the store NewStriped builds — sealed
// segments' counts from their index files, kept records read from the
// nearest mark, in-place peek — to the reference, state and answers.
// File journals cut into segments of a few records each put the window's
// edge in the middle of a segment, on a segment boundary, and inside one
// case's run of records; their index files are present, absent, stale,
// damaged, or beside a leftover temp file; a damaged record must fail
// the open as one scan would.
func TestRecoverWindowEquivalence(t *testing.T) {
	const w = 16
	sizes := []int{0, 1, w - 1, w, w + 1, 2 * w, 4*w - 1, 4 * w, 4*w + 1, 40 * w}
	for _, window := range []int{0, 1, w} {
		for _, stripes := range []int{1, 4} {
			for _, n := range sizes {
				seed := int64(1000*window + 100*stripes + n)
				t.Run(fmt.Sprintf("window=%d/stripes=%d/n=%d", window, stripes, n), func(t *testing.T) {
					journals := memJournals(stripes)
					appendTrail(t, rand.New(rand.NewSource(seed)), writerOver(t, journals), n, 1)
					checkReopen(t, journals, window, n)
				})
			}
		}
	}

	const n = 400
	dir := t.TempDir()
	journals := fileJournals(t, dir, 1, storage.Options{SegmentSize: 512})
	appendTrail(t, rand.New(rand.NewSource(7)), writerOver(t, journals), n, 6)
	bases := segmentBases(t, filepath.Join(dir, "stripe-0000"))
	if len(bases) < 8 {
		t.Fatalf("%d segments, want at least 8", len(bases))
	}
	insts := recordInstances(t, journals[0])
	boundary := bases[len(bases)/2] - 1 // the prefix ends its segment
	middle := boundary + 3
	if next := bases[len(bases)/2+1]; middle+1 >= next {
		t.Fatalf("segment [%d, %d) holds too few records", boundary+1, next)
	}
	straddle := uint64(n / 3) // a case has records on both sides
	for insts[straddle] == "" || insts[straddle] != insts[straddle+1] {
		straddle++
	}
	for _, c := range []struct {
		name string
		cut  uint64
	}{{"boundary", boundary}, {"mid-segment", middle}, {"straddle", straddle}, {"first", 1}, {"last", n - 1}} {
		t.Run("file/cut="+c.name, func(t *testing.T) {
			checkReopen(t, journals, n-int(c.cut), n)
		})
	}
	t.Run("file/stripes=4", func(t *testing.T) {
		journals := fileJournals(t, t.TempDir(), 4, storage.Options{SegmentSize: 512})
		appendTrail(t, rand.New(rand.NewSource(8)), writerOver(t, journals), n, 6)
		checkReopen(t, journals, w, n)
	})
	t.Run("file/damaged", recoverDamagedRecord)
	t.Run("file/index", recoverIndexFiles)
}

// recoverIndexFiles reopens a file journal whose sealed segments' index
// files are present, absent, stale, damaged or beside a leftover temp
// file, or whose body does not decode. Every reopen answers as a scan
// does; an index file is taken when it is valid and written anew when it
// is not.
func recoverIndexFiles(t *testing.T) {
	const n, window = 600, 40
	trail := func(dir string, segmentSize int64) []storage.Journal {
		journals := fileJournals(t, dir, 1, storage.Options{SegmentSize: segmentSize})
		appendTrail(t, rand.New(rand.NewSource(9)), writerOver(t, journals), n, 6)
		return journals
	}
	dir := t.TempDir()
	journals := trail(dir, 1024)
	jdir := filepath.Join(dir, "stripe-0000")
	bases := segmentBases(t, jdir)
	sealed := len(bases) - 1
	if sealed < 8 {
		t.Fatalf("%d sealed segments, want at least 8", sealed)
	}
	idx := func(base uint64) string { return filepath.Join(jdir, fmt.Sprintf("wal-%020d.idx", base)) }
	// A shorter first segment of the same trail, whose index file is
	// stale for this one: its base matches, its records and bytes do not.
	shortDir := t.TempDir()
	trail(shortDir, 512)
	stale, err := os.ReadFile(filepath.Join(shortDir, "stripe-0000", fmt.Sprintf("wal-%020d.idx", bases[0])))
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(t *testing.T, indexed, fallbacks int) {
		t.Helper()
		s := checkReopen(t, journals, window, n)
		if st := s.Stats(); st.IndexedSegments != indexed || st.IndexFallbacks != fallbacks || st.ScannedSegments != fallbacks+1 {
			t.Errorf("first reopen's stats %+v, want %d indexed, %d fallbacks", st, indexed, fallbacks)
		}
		// The fallbacks wrote their index files anew.
		again, err := NewStriped(journals, StoreOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if st := again.Stats(); st.IndexedSegments != sealed || st.IndexFallbacks != 0 {
			t.Errorf("second reopen's stats %+v, want every sealed segment indexed", st)
		}
	}
	for _, c := range []struct {
		name      string
		change    func(t *testing.T)
		fallbacks int
	}{
		{"present", func(*testing.T) {}, 0},
		{"absent", func(t *testing.T) {
			for _, base := range bases[:sealed] {
				if err := os.Remove(idx(base)); err != nil {
					t.Fatal(err)
				}
			}
		}, sealed},
		{"stale", func(t *testing.T) {
			if err := os.WriteFile(idx(bases[0]), stale, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"damaged", func(t *testing.T) {
			for _, base := range bases[2:4] {
				data, err := os.ReadFile(idx(base))
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x40
				if err := os.WriteFile(idx(base), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}, 2},
		{"undecodable", func(t *testing.T) {
			// A whole index file whose body is not one a stripe writes.
			if err := journals[0].(*storage.FileJournal).WriteSegmentIndex(bases[3], []byte{0xff}); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"temp", func(t *testing.T) {
			// A crash between the temp file's write and its rename leaves
			// the temp file and no index file.
			if err := os.Rename(idx(bases[1]), idx(bases[1])+".tmp"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(idx(bases[2])+".tmp", []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.change(t)
			reopen(t, sealed-c.fallbacks, c.fallbacks)
		})
	}
}

// writerOver opens a store to append to the journals. It is abandoned
// unclosed: Close would close the journals the readers need.
func writerOver(t *testing.T, journals []storage.Journal) *Store {
	t.Helper()
	writer, err := NewStriped(journals, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return writer
}

// appendTrail appends n seeded events through writer, about a third of
// them as the records journals written before numbered instance IDs
// hold. An instance emits from 1 to maxRun events in a row, and one run
// in twelve has no instance.
func appendTrail(t *testing.T, r *rand.Rand, writer *Store, n, maxRun int) {
	t.Helper()
	instances := 1 + n/6
	inst, left := "", 0
	for i := 0; i < n; i++ {
		e := &Event{
			Type:      allEventTypes[r.Intn(len(allEventTypes))],
			Time:      ts(i),
			ProcessID: "order",
			ElementID: fmt.Sprintf("el-%d", r.Intn(5)),
		}
		if left == 0 {
			inst, left = "", 1
			if maxRun > 1 {
				left += r.Intn(maxRun)
			}
			if r.Intn(12) > 0 { // the rest are instance-less (deployments)
				inst = fmt.Sprintf("order-%d", r.Intn(instances))
			}
		}
		left--
		e.InstanceID = inst
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
		if r.Intn(3) > 0 {
			if err := writer.Append(e); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// A record as journals written before numbered IDs hold it,
		// appended and indexed as the stripe's own appends are, so the
		// stripe counts it for its segment's index file.
		st, rec := writer.stripeFor(e.InstanceID), appendLiteral(t, e)
		st.mu.Lock()
		index, err := st.journal.Append(rec)
		if err == nil {
			st.indexLocked(index, rec, e.InstanceID)
		}
		st.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// segmentBases returns the first indexes of a file journal's segments,
// in order, from their file names.
func segmentBases(t *testing.T, dir string) []uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var bases []uint64
	for _, name := range names {
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "wal-"), ".log"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	slices.Sort(bases)
	return bases
}

// recordInstances returns the instance ID of every record of j, by
// index ("" for none).
func recordInstances(t *testing.T, j storage.Journal) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	if err := j.Replay(1, func(index uint64, payload []byte) error {
		e, err := referenceDecode(payload)
		if err == nil {
			out[index] = e.InstanceID
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// recoverDamagedRecord: a record no encoder wrote, below the window,
// among the kept records or in both, fails NewStriped with the error one
// scan of the journals, stripe after stripe, meets first, and the failed
// open leaves no goroutine behind. The damaged records are appended
// behind the stores' backs, so their segments have no index file and
// are read.
func recoverDamagedRecord(t *testing.T) {
	const n, window = 300, 30
	notV2, malformed := []byte(`{"type":"x"}`), []byte{recordV2, 0xff}
	for _, c := range []struct {
		name         string
		prefix, kept []byte // stripe 0's damaged records, nil for none
		other        []byte // stripe 1's, in its prefix
		want         error
	}{
		{"prefix", notV2, nil, nil, errNotV2},
		{"kept", nil, malformed, nil, errMalformedRecord},
		{"both", notV2, malformed, nil, errNotV2},
		{"stripes", nil, malformed, notV2, errMalformedRecord},
	} {
		t.Run(c.name, func(t *testing.T) {
			journals := fileJournals(t, t.TempDir(), 2, storage.Options{SegmentSize: 512})
			damage := func(stripe int, rec []byte) uint64 {
				if rec == nil {
					return 0
				}
				index, err := journals[stripe].Append(rec)
				if err != nil {
					t.Fatal(err)
				}
				return index
			}
			r, writer := rand.New(rand.NewSource(int64(len(c.name)))), writerOver(t, journals)
			appendTrail(t, r, writer, n/3, 6)
			inPrefix := damage(0, c.prefix)
			damage(1, c.other)
			appendTrail(t, r, writer, n*2/3, 6)
			inKept := damage(0, c.kept)
			cut := journals[0].LastIndex() - window
			if inPrefix > cut || inKept != 0 && inKept <= cut {
				t.Fatalf("damaged records at %d and %d, cut at %d", inPrefix, inKept, cut)
			}
			want := serialReplayErr(journals)
			before := settledGoroutines()
			_, err := NewStriped(journals, StoreOptions{Window: window})
			if err == nil || want == nil || err.Error() != want.Error() || !errors.Is(err, c.want) {
				t.Errorf("NewStriped: %v, want %v", err, want)
			}
			if got := goroutinesBackTo(before); got != before {
				t.Errorf("after the failed open: %d goroutines, want %d", got, before)
			}
		})
	}
}

// serialReplayErr is the error one scan of the journals, stripe after
// stripe, meets first.
func serialReplayErr(journals []storage.Journal) error {
	for _, j := range journals {
		var r record
		if err := j.Replay(1, func(index uint64, payload []byte) error {
			if err := r.peek(payload); err != nil {
				return fmt.Errorf("history: replay record %d: %w", index, err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// checkReopen opens journals holding n records twice, with NewStriped
// and with referenceStore, holds the first to the second: stripe state,
// stats and the answer of every query, and returns the first.
func checkReopen(t *testing.T, journals []storage.Journal, window, n int) *Store {
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
		if g, w := instanceStates(gs), instanceStates(ws); !reflect.DeepEqual(g, w) {
			t.Errorf("stripe %d: instances = %v, want %v", i, g, w)
		}
	}
	gotStats, wantStats := got.Stats(), want.Stats()
	if gotStats.RecoveredEvents != n {
		t.Errorf("RecoveredEvents = %d, want %d", gotStats.RecoveredEvents, n)
	}
	gotStats.RecoverySeconds, gotStats.RecoveredEvents = 0, 0
	gotStats.IndexedSegments, gotStats.ScannedSegments, gotStats.IndexFallbacks = 0, 0, 0
	if gotStats != wantStats {
		t.Errorf("Stats = %+v, want %+v", gotStats, wantStats)
	}
	if got.Count() != want.Count() || got.Count() != n {
		t.Errorf("Count = %d, reference %d, appended %d", got.Count(), want.Count(), n)
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
	return got
}

// appendLiteral returns the record of e with every present string
// spelled out, the instance ID too, as a build before numbered instance
// IDs wrote it.
func appendLiteral(t testing.TB, e *Event) []byte {
	t.Helper()
	bare := *e
	bare.ProcessID = ""
	rec, err := AppendEncode(nil, &bare)
	if err != nil {
		t.Fatal(err)
	}
	if e.ProcessID == "" {
		return rec
	}
	head, _ := AppendEncode(nil, &Event{Type: e.Type, Time: e.Time})
	mask := len(head) - 1
	out := append(bytes.Clone(rec[:mask]), rec[mask]|1<<processField)
	out = binrec.AppendString(out, e.ProcessID)
	out = append(out, rec[mask+1:]...)
	enc, _ := AppendEncode(nil, e)
	lit, err1 := referenceDecodeV2(out)
	num, err2 := referenceDecodeV2(enc)
	var r record
	if _ = r.scan(out); r.seq != 0 || err1 != nil || err2 != nil || !reflect.DeepEqual(lit, num) {
		t.Fatalf("literal record %q of %+v reads as %+v (%v), the encoder's %q as %+v (%v)", out, e, lit, err1, enc, num, err2)
	}
	return out
}

// instanceStates returns what a stripe knows of each instance: its
// count and resident indexes (the active segment's tally is left out).
func instanceStates(st *stripe) map[string]instance {
	out := map[string]instance{}
	for id, inst := range st.insts {
		out[id] = instance{id: inst.id, indexes: inst.indexes, count: inst.count}
	}
	return out
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

// TestPeekAllocatesNothing: the boot scan and EventsOf's skip read a
// record's type and a literal instance ID where they lie, and
// build a numbered one in the caller's buffer, reused from record to
// record. The numbered records are checked to be numbered.
func TestPeekAllocatesNothing(t *testing.T) {
	var buf []byte
	for _, c := range []struct {
		e        *Event
		numbered bool
	}{
		{&Event{Type: ElementCompleted, Time: ts(1), ProcessID: "order", InstanceID: "order-1", ElementID: "approve"}, true},
		{&Event{Type: ElementCompleted, Time: ts(1), ProcessID: "bench-pipeline", InstanceID: "bench-pipeline-1528"}, true},
		{&Event{Type: TaskCreated, Time: ts(1), ProcessID: "order", InstanceID: "order-18446744073709551615", Data: map[string]any{"routing": true}}, true},
		{&Event{Type: ElementCompleted, Time: ts(1), ProcessID: "order", InstanceID: "order-007"}, false},
		{&Event{Type: ElementCompleted, Time: ts(2), InstanceID: "zoë-1", Data: map[string]any{"routing": true}}, false},
		{&Event{Type: "custom.type", Time: ts(3), InstanceID: "order-2"}, false},
	} {
		payload, err := AppendEncode(nil, c.e)
		if err != nil {
			t.Fatal(err)
		}
		var r record
		if _ = r.scan(payload); (r.seq > 0) != c.numbered {
			t.Errorf("%q under %q: numbered = %v, want %v", c.e.InstanceID, c.e.ProcessID, r.seq > 0, c.numbered)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if typ, inst, err := peekEvent(payload, &buf); err != nil || string(inst) != c.e.InstanceID || string(typ) != string(c.e.Type) {
				t.Fatalf("peek of %q = %q, %q, %v", payload, typ, inst, err)
			}
		})
		if allocs != 0 {
			t.Errorf("peek of %q allocates %.0f times", payload, allocs)
		}
	}
}
