package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
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
	tail, err := json.Marshal(stateOf(inst).Tokens)
	if err != nil {
		tail = []byte(err.Error())
	}
	joins := []byte("{}") // none, however spelled: restoreInstance keeps its own empty map
	if len(inst.Joins) > 0 {
		joins, err = json.Marshal(inst.Joins)
	}
	if err != nil {
		joins = []byte(err.Error())
	}
	fmt.Fprintf(&b, "%s\n%s\n", tail, joins)
	return b.String()
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
	}
}

// checkBinaryMatchesJSON encodes inst as a binary record and as the
// JSON record engines wrote before, which Upgrade transcodes, and holds
// the two decodes to one answer.
func checkBinaryMatchesJSON(t *testing.T, inst *Instance) {
	t.Helper()
	bin, err := encodeInstance(nil, inst)
	if err != nil {
		t.Fatalf("%s: binary encode: %v", inst.ID, err)
	}
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
	// Finished cases other than faulted ones carry no JSON at all.
	for _, inst := range cases {
		bin, _ := encodeInstance(nil, inst)
		if hasTail := strings.Contains(string(bin), `{"tokens"`) || strings.Contains(string(bin), `{"joins"`); hasTail != (len(inst.Tokens)+len(inst.Joins) > 0) {
			t.Errorf("%s: JSON tail present = %v with %d tokens, %d joins", inst.ID, hasTail, len(inst.Tokens), len(inst.Joins))
		}
	}
}

// TestStateBinaryKeepsWhatJSONCannot: NaN and ±Inf variables fail the
// JSON encoder and go through the binary one, as does invalid UTF-8,
// which comes back byte for byte (JSON maps it to U+FFFD).
func TestStateBinaryKeepsWhatJSONCannot(t *testing.T) {
	inst := &Instance{ID: "odd-\xff", ProcessID: "p", Status: StatusCompleted, Vars: map[string]expr.Value{
		"nan": expr.Float(math.NaN()), "inf": expr.Float(math.Inf(1)), "ninf": expr.Float(math.Inf(-1)),
		"bytes\xfe": expr.String("\xff\xfe")}}
	if _, err := legacyState(inst); err == nil {
		t.Fatal("JSON encoded NaN")
	}
	bin, err := encodeInstance(nil, inst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCase(bin)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderState(got), renderState(inst); a != b {
		t.Errorf("decoded\n%s\nwant\n%s", a, b)
	}
}

// TestStateDecodeDeclines: damaged or impossible binary records are
// errors, never a case.
func TestStateDecodeDeclines(t *testing.T) {
	good, err := encodeInstance(nil, sampleCases()[1])
	if err != nil {
		t.Fatal(err)
	}
	head := len(good) - len(good[strings.Index(string(good), `{"tokens"`):])
	for name, rec := range map[string][]byte{
		"marker only":     {stateV2},
		"truncated head":  good[:3],
		"unknown status":  append([]byte{stateV2, 1, 'a', 1, 'p', 9}, good[9:head]...),
		"truncated vars":  good[:head-1],
		"tail not object": append(good[:head:head], '['),
		"tail not JSON":   append(good[:head:head], "{nope"...),
		"null token":      append(good[:head:head], `{"tokens":[null]}`...),
		"JSON envelope":   []byte(`{"kind":"instance","state":{"id":"p-1","processId":"p","status":1,"vars":{}}}`),
		"null deploy":     []byte(`{"kind":"deploy","process":null}`),
	} {
		if v, err := decodeRecoveryRecord(rec); err == nil {
			t.Errorf("%s: decoded %+v", name, v)
		}
	}
}

// FuzzDecodeState holds the state decoder, on any record, to: no panic;
// a record neither binary nor a deployment is declined; and decode ∘
// encode ∘ decode ≡ decode (but for a time in Local at offset 0, which
// the binary encoder turns into UTC). The seed corpus under
// testdata/fuzz/FuzzDecodeState holds records TestRetirementEquivalence
// writes (WAL and snapshot), JSON records from data dirs written before
// binary records, and damaged ones.
func FuzzDecodeState(f *testing.F) {
	for _, inst := range sampleCases() {
		bin, err := encodeInstance(nil, inst)
		if err != nil {
			f.Fatal(err)
		}
		js, err := legacyStateRecord(inst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		inst, err := decodeCase(rec)
		if err != nil {
			return
		}
		if rec[0] != stateV2 {
			t.Fatalf("decoded %q, which is not a binary record, to\n%s", rec, renderState(inst))
		}
		bin, err := encodeInstance(nil, inst)
		if err != nil {
			t.Fatalf("decoded case does not encode: %v\n%s", err, renderState(inst))
		}
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
	e, err := newTestEngine(Config{Journal: j})
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
	e2, err := newTestEngine(Config{Journal: j})
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
