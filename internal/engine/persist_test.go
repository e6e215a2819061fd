package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// TestEncodeRecordMatchesMarshal proves the pooled envelope writer
// produces exactly what json.Marshal(record{...}) produced, so
// journals written before and after the zero-copy change replay
// interchangeably.
func TestEncodeRecordMatchesMarshal(t *testing.T) {
	state := []byte(`{"id":"i-1","processId":"p","status":1,"vars":{}}`)
	bp := encodeRecord("instance", "state", state)
	got := string(*bp)
	recordBufPool.Put(bp)
	want, err := json.Marshal(record{Kind: "instance", State: state})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("envelope mismatch:\n got %s\nwant %s", got, want)
	}
	var rec record
	if err := json.Unmarshal([]byte(got), &rec); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if rec.Kind != "instance" || string(rec.State) != string(state) {
		t.Errorf("decoded record: kind=%q state=%s", rec.Kind, rec.State)
	}
}

// TestPersistRoundTripThroughEnvelope drives deploy + instance records
// through the pooled envelope into a journal and recovers them.
func TestPersistRoundTripThroughEnvelope(t *testing.T) {
	j := storage.NewMemJournal()
	e, err := New(Config{Journal: j})
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
	// Every journal record must be valid JSON with a known kind.
	count := 0
	err = j.Replay(1, func(_ uint64, payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Kind != "deploy" && rec.Kind != "instance" {
			t.Errorf("unexpected record kind %q", rec.Kind)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no journal records written")
	}
	// A fresh engine recovers the instance from those records.
	e2, err := New(Config{Journal: j})
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

// decodeRecordViaEnvelope is decodeRecoveryRecord as it was before the
// instance fast path: the envelope, then the state out of a RawMessage.
func decodeRecordViaEnvelope(t *testing.T, payload []byte) any {
	t.Helper()
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatalf("envelope %s: %v", payload, err)
	}
	if rec.Kind != "instance" {
		return rec.Kind
	}
	st := &instState{}
	if err := json.Unmarshal(rec.State, st); err != nil {
		t.Fatalf("state %s: %v", rec.State, err)
	}
	return st
}

// TestRecoveryDecodeFastPathMatchesEnvelope writes a journal with the
// engine's encoder (byte-identical to json.Marshal(record{…}), the
// encoder before it: TestEncodeRecordMatchesMarshal), then holds the
// in-place instance decode to the envelope decode record by record,
// and a recovery from those records to a recovery from the same
// records re-spelled so that only the fallback reads them.
func TestRecoveryDecodeFastPathMatchesEnvelope(t *testing.T) {
	j := storage.NewMemJournal()
	e, err := New(Config{Journal: j})
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

	respelled := storage.NewMemJournal()
	instances := 0
	err = j.Replay(1, func(_ uint64, payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		// The pre-envelope-writer encoder, and two spellings the fast
		// path must leave to the fallback.
		marshalled, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, payload, "", " "); err != nil {
			return err
		}
		forms := [][]byte{payload, marshalled, indented.Bytes()}
		if rec.Kind == "instance" {
			instances++
			if string(marshalled) != string(payload) {
				t.Errorf("json.Marshal(record) = %s, journal holds %s", marshalled, payload)
			}
			forms = append(forms, []byte(`{"state":`+string(rec.State)+`,"kind":"instance"}`))
			want := decodeRecordViaEnvelope(t, payload)
			for _, form := range forms {
				got, err := decodeRecoveryRecord(form)
				if err != nil {
					t.Fatalf("decode %s: %v", form, err)
				}
				if f, ok := got.(*finishedRec); ok {
					// A finished case is kept as its state bytes, which
					// must decode to the same state it is filed under.
					st := &instState{}
					if err := json.Unmarshal(f.state, st); err != nil {
						t.Fatalf("archived state %s: %v", f.state, err)
					}
					if string(f.id) != st.ID || string(f.processID) != st.ProcessID || f.status != st.Status {
						t.Errorf("archived %s/%s/%s, state says %s/%s/%s", f.id, f.processID, f.status, st.ID, st.ProcessID, st.Status)
					}
					got = st
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("decode %s:\n got %+v\nwant %+v", form, got, want)
				}
			}
		}
		_, err = respelled.Append(indented.Bytes())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if instances == 0 {
		t.Fatal("no instance records written")
	}

	fast, err := New(Config{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(Config{Journal: respelled})
	if err != nil {
		t.Fatal(err)
	}
	ids := fast.Instances()
	if len(ids) != 6 || !reflect.DeepEqual(slow.Instances(), ids) {
		t.Fatalf("recovered %v and %v, want the same six", ids, slow.Instances())
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
		if !reflect.DeepEqual(fv, sv) {
			t.Errorf("instance %s recovered differently:\n fast %+v\n slow %+v", id, fv, sv)
		}
		if !fv.Vars["amount"].Equal(expr.Int(4200)) || fv.Vars["amount"].Kind() != expr.KindInt {
			t.Errorf("instance %s: amount = %v", id, fv.Vars["amount"])
		}
	}
}
