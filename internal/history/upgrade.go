package history

import (
	"encoding/json"
	"fmt"

	"bpms/internal/fault"
	"bpms/internal/storage"
)

// Upgrade rewrites the history journal in dir so that every record is
// v2, in the current framing: journals written before v2 records hold
// v1 records, the JSON encoding of an Event, which the readers no
// longer take. core.Open runs it once per data dir, before the journal
// opens.
func Upgrade(fsys fault.FS, dir string) (storage.UpgradeStats, error) {
	return storage.Upgrade(fsys, dir, upgradeRecord, nil)
}

// upgradeRecord returns the v2 record of a v1 record's event, or nil for
// a v2 record. The event is what encoding/json reads, so it decodes as
// the v1 record did.
func upgradeRecord(p []byte) ([]byte, error) {
	if len(p) > 0 && p[0] == recordV2 {
		return nil, nil
	}
	e := &Event{}
	if err := json.Unmarshal(p, e); err != nil {
		return nil, fmt.Errorf("history: upgrade v1 record: %w", err)
	}
	return AppendEncode(nil, e)
}
