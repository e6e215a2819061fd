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
)

// Writers of the formats data dirs hold from before the current ones,
// so tests can build such a dir and hold the readers to it.

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

// jsonState is the JSON state record the engine wrote before binary
// records.
func jsonState(inst *Instance) ([]byte, error) {
	return json.Marshal(stateOf(inst))
}

// jsonStateRecord is jsonState in its journal envelope.
func jsonStateRecord(inst *Instance) ([]byte, error) {
	state, err := jsonState(inst)
	if err != nil {
		return nil, err
	}
	return json.Marshal(record{Kind: "instance", State: state})
}

// instanceOf is the Instance recovery builds from st, without the
// definition a case needs only to run.
func instanceOf(st *instState) *Instance {
	inst := &Instance{ID: st.ID, ProcessID: st.ProcessID, Status: st.Status, Vars: st.Vars,
		Tokens: map[uint64]*Token{}, Joins: st.Joins, StartedAt: st.StartedAt, EndedAt: st.EndedAt}
	for _, tok := range st.Tokens {
		inst.Tokens[tok.ID] = tok
	}
	return inst
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
