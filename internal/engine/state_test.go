package engine

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bpms/internal/binrec"
	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/task"
)

// renderState spells out everything recovery and reads take from a
// decoded state: identity, status, both times with their Location, each
// variable with its kind, and the tokens and joins. Two states that
// render alike answer alike. Values render through Value.String, which
// tells an int from a float; a nil list or map renders as an empty one,
// as every reader treats it.
func renderState(inst *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %q %s\n", inst.ID, inst.ProcessID, inst.Status)
	for _, t := range []time.Time{inst.StartedAt, inst.EndedAt} {
		fmt.Fprintf(&b, "%s %q\n", t.Format(time.RFC3339Nano+" MST"), t.Location())
	}
	keys := make([]string, 0, len(inst.Vars))
	for k := range inst.Vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%q=%s\n", k, inst.Vars[k])
	}
	for _, tok := range stateOf(inst).Tokens {
		renderToken(&b, tok)
	}
	for _, path := range slices.Sorted(maps.Keys(inst.Joins)) {
		flows := inst.Joins[path]
		for _, flow := range slices.Sorted(maps.Keys(flows)) {
			fmt.Fprintf(&b, "join %q %q %v\n", path, flow, flows[flow])
		}
		if len(flows) == 0 {
			fmt.Fprintf(&b, "join %q\n", path)
		}
	}
	return b.String()
}

// renderToken spells out what a token persists. Of a multi-instance
// token's item indexes it shows those of the open items, the ones
// recovery re-issues.
func renderToken(b *strings.Builder, t *Token) {
	at := func(t time.Time) string { return fmt.Sprintf("%s %q", t.Format(time.RFC3339Nano), t.Location()) }
	fmt.Fprintf(b, "token %d %q %s item=%q timer=%s msg=%q key=%q scope=%d\n",
		t.ID, t.Elem, t.Wait, t.WorkItemID, at(t.TimerAt), t.Message, t.CorrKey, t.ScopeLive)
	for _, a := range t.Race {
		fmt.Fprintf(b, "  race %q msg=%q key=%q timer=%s\n", a.Elem, a.Message, a.CorrKey, at(a.TimerAt))
	}
	for _, a := range t.Boundaries {
		fmt.Fprintf(b, "  boundary %q %s interrupt=%v msg=%q key=%q timer=%s error=%q fired=%v\n",
			a.Elem, a.Kind, a.Interrupt, a.Message, a.CorrKey, at(a.TimerAt), a.ErrorCode, a.Fired)
	}
	if mi := t.MI; mi != nil {
		fmt.Fprintf(b, "  mi total=%d done=%d next=%d parallel=%v stopped=%v var=%q items=%s open=[",
			mi.Total, mi.Done, mi.NextIdx, mi.Parallel, mi.Stopped, mi.ElemVar, expr.List(mi.Items...))
		for _, id := range mi.OpenItems {
			fmt.Fprintf(b, " %q:%d", id, mi.ItemIdx[id])
		}
		b.WriteString(" ]\n")
	}
}

// decodeCase decodes a state record to the Instance a read of it
// rebuilds.
func decodeCase(rec []byte) (*Instance, error) {
	v, err := decodeRecoveryRecord(rec)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case *instState:
		return instanceOf(x), nil
	case *finishedRec:
		st, err := parseState(x.state)
		if err != nil {
			return nil, err
		}
		if string(x.id) != st.ID || string(x.processID) != st.ProcessID || x.status != st.Status {
			return nil, fmt.Errorf("archived as %s/%s/%s, decodes to %s/%s/%s",
				x.id, x.processID, x.status, st.ID, st.ProcessID, st.Status)
		}
		return instanceOf(st), nil
	}
	return nil, fmt.Errorf("not an instance record: %T", v)
}

// allKinds holds a variable of each of the seven Value kinds, and nested
// lists and maps besides.
func allKinds() map[string]expr.Value {
	return map[string]expr.Value{
		"none": expr.Null, "no": expr.False, "yes": expr.True,
		"int": expr.Int(-1 << 62), "float": expr.Float(-0.5e-300), "zero": expr.Float(math.Copysign(0, -1)),
		"str":  expr.String(`zoë <&> "q" \ ` + "\n\t\x01"),
		"list": expr.List(expr.Int(1), expr.Float(1), expr.String(""), expr.List(), expr.Map(map[string]expr.Value{})),
		"map":  expr.Map(map[string]expr.Value{"b": expr.Int(2), "a": expr.List(expr.Null), "": expr.True}),
		"":     expr.String("empty key"),
	}
}

// sampleCases are states the encoders are held to each other on: a
// finished case, a live one parked at a multi-instance task with a join
// waiting, a faulted one keeping its token, and times in and out of UTC.
func sampleCases() []*Instance {
	t0 := time.Date(2026, 3, 4, 5, 6, 7, 890123456, time.UTC)
	ist := time.FixedZone("", 5*3600+30*60)
	return []*Instance{
		{ID: "pipeline-1", ProcessID: "pipeline", Status: StatusCompleted, Vars: allKinds(),
			StartedAt: t0, EndedAt: t0.Add(time.Millisecond)},
		{ID: `a"b\c-2`, ProcessID: "zoë", Status: StatusActive, Vars: map[string]expr.Value{"n": expr.Int(3)},
			StartedAt: t0.In(ist), Tokens: map[uint64]*Token{
				7: {ID: 7, Elem: "review", Wait: WaitMulti, MI: &miState{Total: 2, Parallel: true,
					Items: []expr.Value{expr.String("x"), expr.Float(2.5)}, ElemVar: "item",
					OpenItems: []string{"w-1"}, ItemIdx: map[string]int{"w-1": 1}}},
				3: {ID: 3, Elem: "sp/wait", Wait: WaitTimer, TimerAt: t0.Add(time.Hour).In(ist)},
			},
			Joins: map[string]map[string][]uint64{"join": {"f1": {3}, "f2": nil}}},
		{ID: "faulty-3", ProcessID: "faulty", Status: StatusFaulted, Vars: map[string]expr.Value{},
			StartedAt: t0.In(time.FixedZone("", -7*3600)), EndedAt: t0.In(time.FixedZone("", -7*3600)),
			Tokens: map[uint64]*Token{1: {ID: 1, Elem: "fail"}}},
		{ID: "cancelled-4", ProcessID: "p", Status: StatusCancelled, Vars: nil, StartedAt: t0},
		everyWait(t0),
	}
}

// everyWait is a live case holding a token of every wait kind, with
// every field a token persists set somewhere: boundary arms of each
// kind, one fired, an event-gateway race, a sub-process scope and
// joins queued inside and outside it.
func everyWait(t0 time.Time) *Instance {
	return &Instance{ID: "every-5", ProcessID: "every", Status: StatusActive, Vars: map[string]expr.Value{"n": expr.Int(1)},
		StartedAt: t0, Tokens: map[uint64]*Token{
			1: {ID: 1, Elem: "review", Wait: WaitUserTask, WorkItemID: "wi-1", Boundaries: []boundaryArm{
				{Elem: "late", Kind: model.BoundaryTimer, Interrupt: true, TimerAt: t0.Add(time.Minute)},
				{Elem: "nudge", Kind: model.BoundaryTimer, TimerAt: t0.Add(time.Second), Fired: true},
				{Elem: "oops", Kind: model.BoundaryError, Interrupt: true, ErrorCode: "E42"},
				{Elem: "recall", Kind: model.BoundaryMessage, Message: "recall", CorrKey: "k-1"}}},
			2:  {ID: 2, Elem: "paid", Wait: WaitMessage, Message: "payment", CorrKey: "order-7"},
			4:  {ID: 4, Elem: "wait", Wait: WaitTimer, TimerAt: t0.Add(24 * time.Hour)},
			5:  {ID: 5, Elem: "race", Wait: WaitEventGate, Race: []raceArm{{Elem: "answer", Message: "reply", CorrKey: "q-1"}, {Elem: "tooLate", TimerAt: t0.Add(time.Hour)}}},
			9:  {ID: 9, Elem: "sp", Wait: WaitSubProc, ScopeLive: 2},
			10: {ID: 10, Elem: "sp/and", Wait: WaitJoin},
			11: {ID: 11, Elem: "sp/task", Wait: WaitUserTask, WorkItemID: "wi-2"},
			12: {ID: 12, Elem: "or", Wait: WaitJoin},
			300: {ID: 300, Elem: "check", Wait: WaitMulti, MI: &miState{Total: 3, Done: 1, NextIdx: 3, Stopped: true,
				Items:   []expr.Value{expr.Int(7), expr.String("b"), expr.Map(map[string]expr.Value{"k": expr.List(expr.Null)})},
				ElemVar: "x", OpenItems: []string{"wi-9", "wi-8"}, ItemIdx: map[string]int{"wi-8": 0, "wi-9": 2}}},
		},
		Joins: map[string]map[string][]uint64{"sp/and": {"a": {10}}, "or": {"f1": {12}, "f2": {12}}}}
}

// checkBinaryMatchesJSON encodes inst as a binary record and as the
// JSON record engines wrote before, which Upgrade transcodes, and holds
// the two decodes to one answer.
func checkBinaryMatchesJSON(t *testing.T, inst *Instance) {
	t.Helper()
	bin := encodeInstance(nil, inst)
	js, err := legacyStateRecord(inst)
	if err != nil {
		t.Fatalf("%s: JSON encode: %v", inst.ID, err)
	}
	if _, err := decodeCase(js); err == nil {
		t.Fatalf("%s: the JSON record decodes without an upgrade", inst.ID)
	}
	upgraded, err := upgradeRecord(js)
	if err != nil {
		t.Fatalf("%s: upgrade: %v", inst.ID, err)
	}
	fromBin, err := decodeCase(bin)
	if err != nil {
		t.Fatalf("%s: binary decode: %v", inst.ID, err)
	}
	fromJSON, err := decodeCase(upgraded)
	if err != nil {
		t.Fatalf("%s: upgraded JSON decode: %v", inst.ID, err)
	}
	if a, b := renderState(fromBin), renderState(fromJSON); a != b {
		t.Errorf("%s decodes differently:\nbinary %s\nJSON   %s", inst.ID, a, b)
	}
	// The record format 3 wrote, with its JSON tail, upgrades to the
	// binary record byte for byte.
	f3, err := format3Record(inst)
	if err != nil {
		t.Fatalf("%s: format 3 encode: %v", inst.ID, err)
	}
	hasJSONTail := len(inst.Tokens)+len(inst.Joins) > 0
	if _, err := decodeCase(f3); (err == nil) == hasJSONTail {
		t.Fatalf("%s: format 3 record decodes with error %v; want one exactly when it has a JSON tail (%v)", inst.ID, err, hasJSONTail)
	}
	upgraded, err = upgradeRecord(f3)
	switch {
	case err != nil:
		t.Fatalf("%s: upgrade of the format 3 record: %v", inst.ID, err)
	case !hasJSONTail && upgraded != nil:
		t.Errorf("%s: upgrade rewrote a format 3 record without a tail", inst.ID)
	case hasJSONTail && !bytes.Equal(upgraded, bin):
		t.Errorf("%s: format 3 record upgrades to\n%x\nnot the binary record\n%x", inst.ID, upgraded, bin)
	}
}

// TestStateBinaryMatchesJSON holds a state encoded as a binary record
// and as the JSON record it replaces, upgraded, to the same decoded
// case, with
// Local set to a zone of its own so the Location rule's three branches
// (UTC, Local, an unnamed fixed zone) all show.
func TestStateBinaryMatchesJSON(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("LCL", 3600)
	t.Cleanup(func() { time.Local = saved })
	cases := sampleCases()
	t0 := cases[0].StartedAt
	for i, zone := range []*time.Location{time.Local, time.FixedZone("", 3600), time.FixedZone("", 7200),
		time.FixedZone("named", 0), time.FixedZone("IST", 5*3600+30*60)} {
		cases = append(cases, &Instance{ID: fmt.Sprint("zone-", i), ProcessID: "p", Status: StatusCompleted,
			StartedAt: t0.In(zone), EndedAt: t0.Add(time.Second).In(zone)})
	}
	for _, inst := range cases {
		checkBinaryMatchesJSON(t, inst)
	}
	// Finished cases other than faulted ones end at their variables.
	for _, inst := range cases {
		bin := encodeInstance(nil, inst)
		_, head, err := parseStateHead(bin)
		if hasTail := err == nil && head < len(bin); hasTail != (len(inst.Tokens)+len(inst.Joins) > 0) {
			t.Errorf("%s: tail present = %v with %d tokens, %d joins", inst.ID, hasTail, len(inst.Tokens), len(inst.Joins))
		}
	}
}

// TestStateBinaryKeepsWhatJSONCannot: NaN and ±Inf variables and
// multi-instance items fail the JSON encoder and go through the binary
// one, as does invalid UTF-8, which comes back byte for byte (JSON maps
// it to U+FFFD).
func TestStateBinaryKeepsWhatJSONCannot(t *testing.T) {
	inst := &Instance{ID: "odd-\xff", ProcessID: "p", Status: StatusActive, Vars: map[string]expr.Value{
		"nan": expr.Float(math.NaN()), "inf": expr.Float(math.Inf(1)), "ninf": expr.Float(math.Inf(-1)),
		"bytes\xfe": expr.String("\xff\xfe")}, Tokens: map[uint64]*Token{1: {ID: 1, Elem: "each\xff", Wait: WaitMulti,
		MI: &miState{Total: 2, Parallel: true, Items: []expr.Value{expr.Float(math.Inf(1)), expr.Float(math.NaN())},
			ElemVar: "x", OpenItems: []string{"w-1", "w-2"}, ItemIdx: map[string]int{"w-1": 0, "w-2": 1}}}}}
	if _, err := legacyState(inst); err == nil {
		t.Fatal("JSON encoded NaN")
	}
	if _, err := format3Record(&Instance{Tokens: inst.Tokens}); err == nil {
		t.Fatal("a format 3 tail encoded NaN")
	}
	bin := encodeInstance(nil, inst)
	got, err := decodeCase(bin)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderState(got), renderState(inst); a != b {
		t.Errorf("decoded\n%s\nwant\n%s", a, b)
	}
}

// TestStateDecodeDeclines: damaged or impossible binary records are
// errors, never a case: a record cut at any byte of its tail or with
// bytes past it, a format 3 JSON tail, and each tail encodeInstance
// cannot write.
func TestStateDecodeDeclines(t *testing.T) {
	good := encodeInstance(nil, everyWait(time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)))
	_, head, err := parseStateHead(good)
	if err != nil || head == len(good) {
		t.Fatalf("no tail at %d of %d: %v", head, len(good), err)
	}
	tail := func(b ...byte) []byte { return append(append(good[:head:head], binaryTail), b...) }
	tok := func(wait WaitKind, mask byte, fields ...byte) []byte {
		return append([]byte{1, 1, 'a', byte(wait), mask}, fields...)
	}
	pastItems := encodeInstance(nil, &Instance{ID: "m-1", ProcessID: "m", Tokens: map[uint64]*Token{1: {ID: 1, Elem: "e",
		Wait: WaitMulti, MI: &miState{Total: 1, Items: []expr.Value{expr.Null}, ElemVar: "x",
			OpenItems: []string{"w"}, ItemIdx: map[string]int{"w": 1}}}}})
	cases := map[string][]byte{
		"marker only":           {stateV2},
		"truncated head":        good[:3],
		"unknown status":        append([]byte{stateV2, 1, 'a', 1, 'p', 9}, good[9:head]...),
		"truncated vars":        good[:head-1],
		"format 3 tail":         append(good[:head:head], `{"tokens":[{"id":1,"elem":"x"}]}`...),
		"unknown tail marker":   append(good[:head:head], 0x7f, 0, 0),
		"tail marker only":      tail(),
		"empty tail":            tail(0, 0),
		"over-long tail":        append(good[:len(good):len(good)], 0),
		"count past the record": tail(0xff, 0xff, 0xff, 0x0f),
		"unknown wait kind":     tail(append(append([]byte{1}, tok(WaitSubProc+1, 0)...), 0)...),
		"tokens out of order":   tail(2, 5, 1, 'a', 0, 0, 3, 1, 'b', 0, 0, 0),
		"repeated token":        tail(2, 5, 1, 'a', 0, 0, 5, 1, 'b', 0, 0, 0),
		"empty work item":       tail(append(append([]byte{1}, tok(WaitUserTask, tokWorkItem, 0)...), 0)...),
		"zero timer":            tail(append(append([]byte{1}, tok(WaitTimer, tokTimer, binrec.AppendTime(nil, time.Time{})...)...), 0)...),
		"no race arms":          tail(append(append([]byte{1}, tok(WaitEventGate, tokRace, 0)...), 0)...),
		"unknown arm mask bit":  tail(append(append([]byte{1}, tok(WaitEventGate, tokRace, 1, 1, 'b', 0x08)...), 0)...),
		"unknown boundary kind": tail(append(append([]byte{1}, tok(WaitUserTask, tokBoundaries, 1, 1, 'b', 4, 0)...), 0)...),
		"zero scope":            tail(append(append([]byte{1}, tok(WaitSubProc, tokScopeLive, 0)...), 0)...),
		"item past collection":  pastItems,
		"join paths unsorted":   tail(0, 2, 1, 'b', 0, 1, 'a', 0),
		"JSON envelope":         []byte(`{"kind":"instance","state":{"id":"p-1","processId":"p","status":1,"vars":{}}}`),
		"null deploy":           []byte(`{"kind":"deploy","process":null}`),
	}
	for n := head + 1; n < len(good); n++ {
		cases[fmt.Sprint("tail cut at ", n)] = good[:n]
	}
	for name, rec := range cases {
		if v, err := decodeRecoveryRecord(rec); err == nil {
			t.Errorf("%s: decoded %+v", name, v)
		}
	}
	// The hand-built tokens decode once the defect is mended.
	if _, err := decodeRecoveryRecord(tail(append(append([]byte{1}, tok(WaitSubProc, tokScopeLive, 1)...), 0)...)); err != nil {
		t.Errorf("a sub-process token: %v", err)
	}
}

// FuzzDecodeState holds the state decoder, on any record, to: no panic;
// a record neither binary nor a deployment is declined, as is one with
// a format 3 JSON tail; and decode ∘ encode ∘ decode ≡ decode (but for
// a time in Local at offset 0, which the binary encoder turns into
// UTC). The seed corpus under testdata/fuzz/FuzzDecodeState holds
// records TestRetirementEquivalence writes (WAL and snapshot), JSON
// records from data dirs written before binary records, format 3
// records, damaged ones, and a live case parked at each wait kind.
func FuzzDecodeState(f *testing.F) {
	for _, inst := range sampleCases() {
		js, err := legacyStateRecord(inst)
		if err != nil {
			f.Fatal(err)
		}
		f3, err := format3Record(inst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeInstance(nil, inst))
		f.Add(js)
		f.Add(f3)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		inst, err := decodeCase(rec)
		if err != nil {
			return
		}
		if _, head, _ := parseStateHead(rec); rec[0] != stateV2 || head < len(rec) && rec[head] == '{' {
			t.Fatalf("decoded %q, which is not a binary record, to\n%s", rec, renderState(inst))
		}
		bin := encodeInstance(nil, inst)
		again, err := decodeCase(bin)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%x", err, bin)
		}
		if a, b := renderState(again), renderState(inst); a != b && !localAtZero(inst) {
			t.Fatalf("decode∘encode∘decode\n%s\n≠ decode\n%s", a, b)
		}
	})
}

func localAtZero(inst *Instance) bool {
	for _, t := range []time.Time{inst.StartedAt, inst.EndedAt} {
		if _, off := t.Zone(); off == 0 && t.Location() == time.Local {
			return true
		}
	}
	return false
}

// TestInfiniteVariablePersists: a script that overflows to +Inf used to
// fail its transition, because the JSON encoder refuses non-finite
// floats; the binary record persists it, and a restart reads it back.
func TestInfiniteVariablePersists(t *testing.T) {
	j := storage.NewMemJournal()
	e, err := newTestEngine(Config{Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := model.New("overflow").Start("s").ScriptTask("grow", model.Output("big", "1e308 * 10")).End("e").
		Seq("s", "grow", "e").MustBuild()
	if err := e.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := e.StartInstance("overflow", nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := newTestEngine(Config{Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := e2.Variables(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := vars["big"].AsFloat(); !ok || !math.IsInf(f, 1) {
		t.Errorf("big = %s after a restart, want +Inf", vars["big"])
	}
}

// TestInfiniteItemsPersist: a multi-instance task over a list holding
// non-finite floats could not start while a live case's tokens were a
// JSON tail, which refuses them; the binary tail keeps them, and a
// restart re-issues the work items with +Inf and NaN intact.
func TestInfiniteItemsPersist(t *testing.T) {
	j := storage.NewMemJournal()
	open := func() (*Engine, *task.Service) {
		users := resource.NewDirectory()
		users.AddUser(&resource.User{ID: "carol", Roles: []string{"clerk"}})
		tasks := task.NewService(task.Config{Directory: users})
		e, err := newTestEngine(Config{Journal: j, Tasks: tasks}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e, tasks
	}
	e, _ := open()
	p := model.New("odd").Start("s").ScriptTask("grow", model.Output("xs", "[1e308 * 10, 2.5, 1e308 * 10 - 1e308 * 10]")).
		UserTask("each", model.Role("clerk"), model.MultiParallel("xs", "x")).End("e").
		Seq("s", "grow", "each", "e").MustBuild()
	if err := e.Deploy(p); err != nil {
		t.Fatal(err)
	}
	v, err := e.StartInstance("odd", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusActive || len(v.ActiveTokens) != 1 || v.ActiveTokens[0].Wait != WaitMulti {
		t.Fatalf("started as %+v", v)
	}
	_, tasks := open()
	items := tasks.OfferedItems("carol")
	got := make([]string, len(items))
	for i, it := range items {
		got[i] = fmt.Sprint(it.Data["loopCounter"], "=", it.Data["x"])
	}
	sort.Strings(got)
	if want := "[0=+Inf 1=2.5 2=NaN]"; fmt.Sprint(got) != want {
		t.Errorf("re-issued items %v, want %s", got, want)
	}
}
