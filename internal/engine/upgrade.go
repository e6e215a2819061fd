package engine

import (
	"encoding/json"
	"fmt"
	"slices"

	"bpms/internal/fault"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// Upgrade rewrites a state journal's or snapshot store's dir so that
// every instance state is a binary record with a binary tail. Format 3
// engines wrote a live case's tokens and joins as a JSON tail, engines
// before binary records wrote a state as the JSON envelope
// {"kind":"instance","state":…}, and engines before streaming
// snapshots wrote a snapshot as one JSON blob. Deploy records stay JSON.
func Upgrade(fsys fault.FS, dir string) (storage.UpgradeStats, error) {
	return storage.Upgrade(fsys, dir, upgradeRecord, splitImage)
}

// upgradeRecord transcodes a binary record with a JSON tail and a JSON
// instance envelope. Any other record is kept: a binary record without
// a JSON tail or a deployment as current, anything else for recovery to
// refuse as before.
func upgradeRecord(rec []byte) ([]byte, error) {
	if len(rec) > 0 && rec[0] == stateV2 {
		return upgradeTail(rec)
	}
	var r struct {
		Kind  string
		State json.RawMessage
	}
	if err := json.Unmarshal(rec, &r); err != nil {
		return nil, fmt.Errorf("engine: upgrade record: %w", err)
	}
	if r.Kind != "instance" {
		return nil, nil
	}
	return upgradeState(r.State)
}

// upgradeTail returns the record of the case a format 3 record holds,
// its tokens and joins read from the JSON tail {"tokens":…,"joins":…}
// by encoding/json, or nil for a record without a JSON tail.
func upgradeTail(rec []byte) ([]byte, error) {
	st, i, err := parseStateHead(rec)
	if err != nil || i == len(rec) || rec[i] != '{' {
		return nil, nil
	}
	var tail struct {
		Tokens []*Token
		Joins  map[string]map[string][]uint64
	}
	if err := json.Unmarshal(rec[i:], &tail); err != nil {
		return nil, fmt.Errorf("engine: upgrade instance state %s: %w", st.ID, err)
	}
	st.Tokens, st.Joins = tail.Tokens, tail.Joins
	return upgradeCase(st)
}

// upgradeState returns the binary record of the case encoding/json
// reads from a JSON state (its keys are instState's field names, as
// JSON spells them), which so answers as it did.
func upgradeState(state []byte) ([]byte, error) {
	var st instState
	if err := json.Unmarshal(state, &st); err != nil {
		return nil, fmt.Errorf("engine: upgrade instance state: %w", err)
	}
	return upgradeCase(&st)
}

// upgradeCase returns the binary record of a case read from JSON. It
// refuses a null token, an unknown status, and a case whose record the
// decoder declines (such as an open work item past its collection),
// which no engine wrote.
func upgradeCase(st *instState) ([]byte, error) {
	if slices.Contains(st.Tokens, nil) || st.Status < StatusActive || st.Status > StatusFaulted {
		return nil, fmt.Errorf("engine: upgrade instance state %s: null token or unknown status %d", st.ID, st.Status)
	}
	rec := encodeInstance(nil, restoreInstance(st, &model.Process{ID: st.ProcessID}))
	if _, err := parseState(rec); err != nil {
		return nil, fmt.Errorf("engine: upgrade instance state %s: %w", st.ID, err)
	}
	return rec, nil
}

// splitImage turns the image of a blob snapshot,
// {"definitions":[…],"instances":[…]} with JSON states, into records.
func splitImage(image []byte, emit func([]byte)) error {
	var img struct{ Definitions, Instances []json.RawMessage }
	if err := json.Unmarshal(image, &img); err != nil {
		return fmt.Errorf("engine: upgrade snapshot image: %w", err)
	}
	for _, def := range img.Definitions {
		bp := encodeDeploy(def)
		emit(*bp)
		recordBufPool.Put(bp)
	}
	for _, state := range img.Instances {
		rec, err := upgradeState(state)
		if err != nil {
			return err
		}
		emit(rec)
	}
	return nil
}
