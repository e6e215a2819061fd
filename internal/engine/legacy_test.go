package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"bpms/internal/expr"
	"bpms/internal/fault"
	"bpms/internal/storage"
)

// Writers of the formats data dirs held before the current ones, so
// tests can build such a dir and hold the upgrade to it.

// stateOf is the instState of inst, tokens in ID order.
func stateOf(inst *Instance) *instState {
	st := &instState{ID: inst.ID, ProcessID: inst.ProcessID, Status: inst.Status, Vars: inst.Vars,
		Joins: inst.Joins, StartedAt: inst.StartedAt, EndedAt: inst.EndedAt}
	for _, tok := range inst.Tokens {
		st.Tokens = append(st.Tokens, tok)
	}
	sort.Slice(st.Tokens, func(a, b int) bool { return st.Tokens[a].ID < st.Tokens[b].ID })
	return st
}

// jsonRecord is a JSON journal record: a deployment, or before binary
// records an instance state in its envelope.
type jsonRecord struct {
	Kind  string          `json:"kind"`
	State json.RawMessage `json:"state"`
}

// jsonState is an instance state as JSON records held it.
type jsonState struct {
	ID        string                         `json:"id"`
	ProcessID string                         `json:"processId"`
	Status    Status                         `json:"status"`
	Vars      map[string]expr.Value          `json:"vars"`
	Tokens    []*Token                       `json:"tokens,omitempty"`
	Joins     map[string]map[string][]uint64 `json:"joins,omitempty"`
	StartedAt time.Time                      `json:"startedAt"`
	EndedAt   time.Time                      `json:"endedAt,omitempty"`
}

// instanceOf is the Instance st describes, without the definition a
// case needs only to run.
func instanceOf(st *instState) *Instance {
	inst := &Instance{ID: st.ID, ProcessID: st.ProcessID, Status: st.Status, Vars: st.Vars,
		Tokens: make(map[uint64]*Token, len(st.Tokens)), Joins: st.Joins, StartedAt: st.StartedAt, EndedAt: st.EndedAt}
	for _, tok := range st.Tokens {
		inst.Tokens[tok.ID] = tok
	}
	return inst
}

// legacyState is the JSON state record the engine wrote before binary
// records.
func legacyState(inst *Instance) ([]byte, error) {
	return json.Marshal((*jsonState)(stateOf(inst)))
}

// legacyStateRecord is legacyState in its journal envelope.
func legacyStateRecord(inst *Instance) ([]byte, error) {
	state, err := legacyState(inst)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonRecord{Kind: "instance", State: state})
}

// format3Record is the state record format 3 engines wrote: the binary
// record up to its variables, then, when the case has tokens or joins,
// a JSON tail {"tokens":…,"joins":…}.
func format3Record(inst *Instance) ([]byte, error) {
	rec := encodeInstance(nil, &Instance{ID: inst.ID, ProcessID: inst.ProcessID, Status: inst.Status,
		Vars: inst.Vars, StartedAt: inst.StartedAt, EndedAt: inst.EndedAt})
	if len(inst.Tokens) == 0 && len(inst.Joins) == 0 {
		return rec, nil
	}
	st := stateOf(inst)
	tail, err := json.Marshal(struct {
		Tokens []*Token                       `json:"tokens,omitempty"`
		Joins  map[string]map[string][]uint64 `json:"joins,omitempty"`
	}{st.Tokens, st.Joins})
	return append(rec, tail...), err
}

// writeBlobSnapshot writes a snapshot into a snapshot store's dir in the
// single-blob format engines wrote before streaming snapshots:
// [8B index][4B CRC-32C of image][image].
func writeBlobSnapshot(t *testing.T, dir string, index uint64, image []byte) {
	t.Helper()
	buf := make([]byte, 12, 12+len(image))
	binary.LittleEndian.PutUint64(buf[0:8], index)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(image, crc32.MakeTable(crc32.Castagnoli)))
	name := filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", index))
	if err := os.WriteFile(name, append(buf, image...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// downgradeDir rewrites the state dir under dir as engines wrote it
// before binary records: every instance state a JSON envelope, in the
// WAL and in each intact snapshot.
func downgradeDir(t *testing.T, dir string) {
	t.Helper()
	downgrade := func(p []byte) ([]byte, error) {
		if p[0] != stateV2 {
			return nil, nil
		}
		st, err := parseState(p)
		if err != nil {
			return nil, err
		}
		return legacyStateRecord(instanceOf(st))
	}
	if _, err := storage.Upgrade(fault.OS, filepath.Join(dir, "state"), downgrade, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Upgrade(fault.OS, filepath.Join(dir, "snapshots"), downgrade, nil); err != nil {
		t.Fatal(err)
	}
}

// upgradeDirs runs Upgrade over a state journal's and a snapshot store's
// dirs, as core.Open does.
func upgradeDirs(dirs ...string) (storage.UpgradeStats, error) {
	var st storage.UpgradeStats
	for _, dir := range dirs {
		s, err := Upgrade(fault.OS, dir)
		if err != nil {
			return st, err
		}
		st.Add(s)
	}
	return st, nil
}
