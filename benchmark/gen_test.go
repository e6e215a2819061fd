package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"bpms/internal/model"
)

func streamBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	data, err := json.Marshal(generate(workload, seed, sizeFor(workload, true)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The same seed gives a byte-identical stream; another seed gives another.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := streamBytes(t, w, 7), streamBytes(t, w, 7), streamBytes(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
	sd := generate(scriptDurable, 3, sizeFor(scriptDurable, true))
	sm := generate(scriptMemory, 3, sizeFor(scriptMemory, true))
	for i, v := range sd.Script {
		if sm.Script[i] != v {
			t.Fatalf("script_durable and script_memory differ at start %d", i)
		}
	}
}

// Every seed carries the same load: same length, every user once per block
// of turns, a new case on every third turn.
func TestTurnScheduleShape(t *testing.T) {
	size := sizeFor(humanBacklog, false)
	st := generate(humanBacklog, 11, size)
	if len(st.Turns) != size.Turns || len(st.Claims) != size.Claims {
		t.Fatalf("%d turns, %d preloaded cases; want %d, %d", len(st.Turns), len(st.Claims), size.Turns, size.Claims)
	}
	seen := map[string]int{}
	for i, turn := range st.Turns {
		slot := 1e6 / size.Rate
		if lo := float64(i) * slot; float64(turn.DueUS) < lo-1 || float64(turn.DueUS) > lo+slot {
			t.Fatalf("turn %d due at %d us, outside its slot", i, turn.DueUS)
		}
		if (turn.Start != nil) != (i%3 == 2) {
			t.Fatalf("turn %d: start=%v", i, turn.Start != nil)
		}
		seen[turn.User]++
	}
	for _, u := range users {
		if seen[u.ID] != size.Turns/len(users) {
			t.Errorf("user %s has %d turns, want %d", u.ID, seen[u.ID], size.Turns/len(users))
		}
	}
}

// The definitions are the benchmark's own and decode, validate and compile.
func TestDefinitions(t *testing.T) {
	defs, err := loadDefs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range defs {
		p, err := model.DecodeJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if p.ID != id {
			t.Errorf("definition ID %q, want %q", p.ID, id)
		}
		if err := p.Compile(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	p, _ := model.DecodeJSON(defs[pipelineID])
	if got := len(pipelineExprs(p)); got != 5 {
		t.Errorf("pipeline has %d expressions, want its condition and four outputs", got)
	}
}

// crash_recovery's tail is loaded after the snapshot of the idle server and
// must not set off an automatic one: counting one journal append per
// deployment and per case, no multiple of snapshot-every may fall in it.
func TestCrashTailSetsOffNoSnapshot(t *testing.T) {
	size := sizeFor(crashRecovery, false)
	every := serverOptions("data", false, nil).SnapshotEvery
	appends := len(definitionsOf(crashRecovery)) + size.Script + size.Claims
	if sinceLast := appends % every; size.Tail > sinceLast {
		t.Errorf("tail of %d cases, but only %d appends follow the last automatic snapshot", size.Tail, sinceLast)
	}
}
