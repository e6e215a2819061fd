package history

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bpms/internal/storage"
)

func ts(sec int) time.Time {
	return time.Date(2026, 6, 1, 12, 0, sec, 0, time.UTC)
}

func TestEventCodec(t *testing.T) {
	e := &Event{
		Type: TaskCompleted, Time: ts(5), ProcessID: "order",
		InstanceID: "i-1", ElementID: "approve", Element: "Approve order",
		TaskID: "t-9", Actor: "alice",
		Data: map[string]any{"amount": 150.0},
	}
	payload, err := AppendEncode(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != e.Type || got.InstanceID != e.InstanceID || got.Actor != "alice" {
		t.Errorf("round trip: %+v", got)
	}
	if got.Data["amount"] != 150.0 {
		t.Errorf("data lost: %v", got.Data)
	}
	if !strings.Contains(e.String(), "task.completed") || !strings.Contains(e.String(), "alice") {
		t.Errorf("String() = %q", e.String())
	}
	if _, err := DecodeEvent([]byte("{broken")); err == nil {
		t.Error("DecodeEvent should fail on bad JSON")
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStriped([]storage.Journal{storage.NewMemJournal()}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreAppendAndQuery(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 3; i++ {
		inst := fmt.Sprintf("i-%d", i%2)
		if err := s.Append(&Event{Type: ElementCompleted, Time: ts(i), InstanceID: inst, ElementID: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(&Event{Type: ProcessDeployed, Time: ts(9), ProcessID: "p"}); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.CountByType(ElementCompleted) != 3 {
		t.Errorf("CountByType = %d", s.CountByType(ElementCompleted))
	}
	ids := s.InstanceIDs()
	if len(ids) != 2 || ids[0] != "i-0" || ids[1] != "i-1" {
		t.Errorf("InstanceIDs = %v", ids)
	}
	if evs := s.EventsOf("i-0"); len(evs) != 2 {
		t.Errorf("EventsOf(i-0) = %d events", len(evs))
	}
	var seen []uint64
	if err := s.All(func(e *Event) error { seen = append(seen, e.Index); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || seen[0] != 1 || seen[3] != 4 {
		t.Errorf("All order = %v", seen)
	}
}

func TestStoreRecoversFromJournal(t *testing.T) {
	dir := t.TempDir()
	j, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Append(&Event{Type: ElementCompleted, Time: ts(i), InstanceID: "i-1", ElementID: fmt.Sprintf("e%d", i)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2, err := NewStriped([]storage.Journal{j2}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 10 {
		t.Fatalf("recovered Count = %d, want 10", s2.Count())
	}
	evs := s2.EventsOf("i-1")
	if len(evs) != 10 || evs[9].ElementID != "e9" {
		t.Fatalf("recovered events wrong: %d", len(evs))
	}
}

func sampleLog() *Log {
	return &Log{
		Name: "test",
		Traces: []Trace{
			{CaseID: "c1", Entries: []Entry{
				{Activity: "A", Resource: "alice", Time: ts(1)},
				{Activity: "B", Resource: "bob", Time: ts(2)},
				{Activity: "C", Time: ts(3)},
			}},
			{CaseID: "c2", Entries: []Entry{
				{Activity: "A", Time: ts(4)},
				{Activity: "C", Time: ts(5)},
			}},
			{CaseID: "c3", Entries: []Entry{
				{Activity: "A", Time: ts(6)},
				{Activity: "B", Time: ts(7)},
				{Activity: "C", Time: ts(8)},
			}},
		},
	}
}

func TestXESRoundTrip(t *testing.T) {
	l := sampleLog()
	data, err := EncodeXES(l)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `key="concept:name"`) ||
		!strings.Contains(string(data), `key="time:timestamp"`) {
		t.Errorf("XES missing standard attributes:\n%s", data)
	}
	got, err := DecodeXES(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "test" || len(got.Traces) != 3 {
		t.Fatalf("decoded: name=%q traces=%d", got.Name, len(got.Traces))
	}
	tr := got.Traces[0]
	if tr.CaseID != "c1" || len(tr.Entries) != 3 {
		t.Fatalf("trace 0: %+v", tr)
	}
	if tr.Entries[0].Activity != "A" || tr.Entries[0].Resource != "alice" {
		t.Errorf("entry 0: %+v", tr.Entries[0])
	}
	if !tr.Entries[1].Time.Equal(ts(2)) {
		t.Errorf("timestamp lost: %v", tr.Entries[1].Time)
	}
	if tr.Entries[2].Lifecycle != "complete" {
		t.Errorf("lifecycle = %q", tr.Entries[2].Lifecycle)
	}
}

func TestDecodeXESErrors(t *testing.T) {
	if _, err := DecodeXES([]byte("<log><trace>")); err == nil {
		t.Error("truncated XML should fail")
	}
	bad := `<log xes.version="1.0"><trace><event><date key="time:timestamp" value="not-a-time"/></event></trace></log>`
	if _, err := DecodeXES([]byte(bad)); err == nil {
		t.Error("bad timestamp should fail")
	}
}

func TestVariants(t *testing.T) {
	l := sampleLog()
	vs := l.Variants()
	if len(vs) != 2 {
		t.Fatalf("variants = %d, want 2", len(vs))
	}
	// A,B,C occurs twice; A,C once.
	if vs[0].Count != 2 || len(vs[0].Activities) != 3 {
		t.Errorf("top variant: %+v", vs[0])
	}
	if vs[1].Count != 1 || len(vs[1].Activities) != 2 {
		t.Errorf("second variant: %+v", vs[1])
	}
}

func TestFromEvents(t *testing.T) {
	s := newStore(t)
	add := func(inst, el, name string, sec int, routing bool) {
		e := &Event{Type: ElementCompleted, Time: ts(sec), InstanceID: inst, ElementID: el, Element: name}
		if routing {
			e.Data = map[string]any{"routing": true}
		}
		s.Append(e)
	}
	add("i-1", "a", "Register", 1, false)
	add("i-1", "gw", "", 2, true) // gateway: excluded by default
	add("i-1", "b", "Approve", 3, false)
	add("i-2", "a", "Register", 4, false)
	s.Append(&Event{Type: InstanceStarted, Time: ts(0), InstanceID: "i-1"}) // not a completion

	l := FromEvents(s, false)
	if len(l.Traces) != 2 {
		t.Fatalf("traces = %d", len(l.Traces))
	}
	if len(l.Traces[0].Entries) != 2 || l.Traces[0].Entries[0].Activity != "Register" {
		t.Errorf("trace i-1: %+v", l.Traces[0].Entries)
	}
	// includeAll keeps the gateway.
	l2 := FromEvents(s, true)
	if len(l2.Traces[0].Entries) != 3 {
		t.Errorf("includeAll trace: %+v", l2.Traces[0].Entries)
	}
}
