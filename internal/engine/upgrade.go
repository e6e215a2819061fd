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
// every instance state is a binary record. Engines before binary records
// wrote a state as the JSON envelope {"kind":"instance","state":…},
// and engines before streaming snapshots wrote a snapshot as one JSON
// blob. Deploy records stay JSON.
func Upgrade(fsys fault.FS, dir string) (storage.UpgradeStats, error) {
	return storage.Upgrade(fsys, dir, upgradeRecord, splitImage)
}

// upgradeRecord transcodes a JSON instance envelope; any other record is
// kept, a deployment being current and anything else refused by
// recovery as before.
func upgradeRecord(rec []byte) ([]byte, error) {
	if len(rec) > 0 && rec[0] == stateV2 {
		return nil, nil
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

// upgradeState returns the binary record of the case encoding/json
// reads from a JSON state (its keys are instState's field names, as
// JSON spells them), which so answers as it did.
func upgradeState(state []byte) ([]byte, error) {
	var st instState
	if err := json.Unmarshal(state, &st); err != nil {
		return nil, fmt.Errorf("engine: upgrade instance state: %w", err)
	}
	if slices.Contains(st.Tokens, nil) || st.Status < StatusActive || st.Status > StatusFaulted {
		return nil, fmt.Errorf("engine: upgrade instance state %s: null token or unknown status %d", st.ID, st.Status)
	}
	return encodeInstance(nil, restoreInstance(&st, &model.Process{ID: st.ProcessID}))
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
