package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// TestEncodeRecordMatchesMarshal proves the pooled deploy envelope
// writer produces exactly what json.Marshal(record{...}) produces, so
// journals written before and after the zero-copy change replay
// interchangeably.
func TestEncodeRecordMatchesMarshal(t *testing.T) {
	p := model.Sequence(2)
	def, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	bp := encodeDeploy(def)
	got := string(*bp)
	recordBufPool.Put(bp)
	want, err := json.Marshal(record{Kind: "deploy", Process: p})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("envelope mismatch:\n got %s\nwant %s", got, want)
	}
	v, err := decodeRecoveryRecord([]byte(got))
	if err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if d, ok := v.(*model.Process); !ok || d.ID != p.ID {
		t.Errorf("decoded record: %+v", v)
	}
}

// TestPersistRoundTripThroughEnvelope drives deploy records through the
// pooled envelope and instance records through the binary encoder into
// a journal and recovers them.
func TestPersistRoundTripThroughEnvelope(t *testing.T) {
	j := storage.NewMemJournal()
	e, err := newTestEngine(Config{Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	v, err := e.StartInstance("seq-3", map[string]any{"note": "a\"quoted\" value"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
	// Every journal record is a deploy envelope or a binary state.
	count := 0
	err = j.Replay(1, func(_ uint64, payload []byte) error {
		count++
		if payload[0] == stateV2 {
			_, err := parseState(payload)
			return err
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Kind != "deploy" {
			t.Errorf("unexpected record kind %q", rec.Kind)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no journal records written")
	}
	// A fresh engine recovers the instance from those records.
	e2, err := newTestEngine(Config{Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e2.Instance(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != StatusCompleted || v2.Vars["note"].ToGo() != "a\"quoted\" value" {
		t.Errorf("recovered instance: %+v", v2)
	}
}

// upgradeJournal copies j, each record as Upgrade rewrites it.
func upgradeJournal(t *testing.T, j storage.Journal) storage.Journal {
	t.Helper()
	out := storage.NewMemJournal()
	err := j.Replay(1, func(_ uint64, p []byte) error {
		rec, err := upgradeRecord(p)
		if err != nil {
			return err
		}
		if rec == nil {
			rec = p
		}
		_, err = out.Append(rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoveryDecodeFastPathMatchesEnvelope writes a journal with the
// engine's encoder and turns it into the journal the JSON encoder wrote
// (json.Marshal(record{…}) around the instance's JSON state), and into
// one with the same records re-spelled (indented). Neither opens as it
// is. Upgraded, each record decodes to the case the envelope decode of
// its JSON reads, and both journals recover to exactly the instances
// the binary one does.
func TestRecoveryDecodeFastPathMatchesEnvelope(t *testing.T) {
	j := storage.NewMemJournal()
	e, err := newTestEngine(Config{Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })
	parked := model.New("parked").
		Start("s").UserTask("approve", model.Role("manager")).End("e").
		Seq("s", "approve", "e").MustBuild()
	for _, p := range []*model.Process{model.Sequence(3), parked} {
		if err := e.Deploy(p); err != nil {
			t.Fatal(err)
		}
	}
	vars := map[string]any{
		"amount": 4200, "ratio": 2.5, "region": "north", "note": "a \"quoted\"\nvalue", "name": "zoë",
		"ok": true, "none": nil, "tags": []any{"a", 1, nil}, "nested": map[string]any{"k": []any{1.5}},
	}
	for i := 0; i < 3; i++ {
		for _, proc := range []string{"seq-3", "parked"} {
			if _, err := e.StartInstance(proc, vars); err != nil {
				t.Fatal(err)
			}
		}
	}

	legacy, respelled := storage.NewMemJournal(), storage.NewMemJournal()
	instances := 0
	err = j.Replay(1, func(_ uint64, payload []byte) error {
		if payload[0] == stateV2 {
			st, err := parseState(payload)
			if err != nil {
				return err
			}
			if payload, err = legacyStateRecord(instanceOf(st)); err != nil {
				return err
			}
			instances++
			var env jsonRecord
			var js jsonState
			if err := json.Unmarshal(payload, &env); err != nil {
				return err
			}
			if err := json.Unmarshal(env.State, &js); err != nil {
				return err
			}
			rec, err := upgradeRecord(payload)
			if err != nil {
				return err
			}
			got, err := decodeCase(rec)
			if err != nil {
				return err
			}
			if a, b := renderState(got), renderState(instanceOf((*instState)(&js))); a != b {
				t.Errorf("upgraded %s decodes to\n%s\nthe envelope to\n%s", payload, a, b)
			}
		}
		if _, err := legacy.Append(payload); err != nil {
			return err
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, payload, "", " "); err != nil {
			return err
		}
		_, err := respelled.Append(indented.Bytes())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if instances == 0 {
		t.Fatal("no instance records written")
	}
	for _, old := range []storage.Journal{legacy, respelled} {
		if _, err := newTestEngine(Config{Journal: old}, nil); err == nil {
			t.Fatal("a journal of JSON instance records opened without an upgrade")
		}
	}

	bin, err := newTestEngine(Config{Journal: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := newTestEngine(Config{Journal: upgradeJournal(t, legacy)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := newTestEngine(Config{Journal: upgradeJournal(t, respelled)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := fast.Instances()
	if len(ids) != 6 || !reflect.DeepEqual(slow.Instances(), ids) || !reflect.DeepEqual(bin.Instances(), ids) {
		t.Fatalf("recovered %v, %v and %v, want the same six", ids, slow.Instances(), bin.Instances())
	}
	for _, id := range ids {
		fv, err := fast.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := slow.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := bin.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fv, sv) || !reflect.DeepEqual(fv, bv) {
			t.Errorf("instance %s recovered differently:\n JSON %+v\n re-spelled %+v\n binary %+v", id, fv, sv, bv)
		}
		if !fv.Vars["amount"].Equal(expr.Int(4200)) || fv.Vars["amount"].Kind() != expr.KindInt {
			t.Errorf("instance %s: amount = %v", id, fv.Vars["amount"])
		}
	}
}

// BenchmarkPersistInstance persists a scripted pipeline case's final
// state: encode into the pooled buffer, append, and the copy retire
// archives. It fails past 2 allocations per persist (the JSON encoder
// took 40).
func BenchmarkPersistInstance(b *testing.B) {
	data, err := os.ReadFile("../../benchmark/testdata/pipeline.json")
	if err != nil {
		b.Fatal(err)
	}
	p, err := model.DecodeJSON(data)
	if err != nil {
		b.Fatal(err)
	}
	e, err := newTestEngine(Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Deploy(p); err != nil {
		b.Fatal(err)
	}
	v, err := e.StartInstance(p.ID, map[string]any{"amount": 4200, "customer": "c-004242", "region": "north"})
	if err != nil || v.Status != StatusCompleted {
		b.Fatalf("start: %+v, %v", v, err)
	}
	inst, err := e.lockCase(v.ID)
	if err != nil {
		b.Fatal(err)
	}
	inst.mu.Unlock()
	var rec []byte
	persist := func() {
		if rec, err = e.persistInstance(inst); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, persist); allocs > 2 {
		b.Fatalf("persisting a finished pipeline case allocates %.0f times, want at most 2", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		persist()
	}
	b.ReportMetric(float64(len(rec)), "B/record")
}
