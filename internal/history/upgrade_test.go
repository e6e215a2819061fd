package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpms/internal/fault"
	"bpms/internal/storage"
)

// testdata/v1-journal holds a history journal of 22 records written by
// the JSON encoder this package used before v2 records: escaped
// strings, zones other than UTC, data, a custom type, instance-less
// events, the zero time, a record with a leading "index".
const v1Journal, v1Records = "testdata/v1-journal", 22

// openV1Copy opens a copy of the v1 journal, reframed with its records
// kept (opening may truncate a torn tail, the mixed case appends, and
// the upgrade rewrites it).
func openV1Copy(t *testing.T) (dir string, j *storage.FileJournal) {
	t.Helper()
	dir = t.TempDir()
	entries, err := os.ReadDir(v1Journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(v1Journal, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := storage.Upgrade(fault.OS, dir, nil, nil); err != nil {
		t.Fatal(err)
	}
	return dir, reopen(t, dir)
}

func reopen(t *testing.T, dir string) *storage.FileJournal {
	t.Helper()
	j, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// formats returns the journal's records' first bytes: '{' for v1,
// recordV2 for v2.
func formats(t *testing.T, j storage.Journal) (out []byte) {
	t.Helper()
	err := j.Replay(1, func(_ uint64, p []byte) error {
		out = append(out, p[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceEvents reads every record of j with the reference decoder:
// a v1 record as encoding/json does, which is what the store answered
// for it before v2. An empty data object is normalised to none, as
// DecodeEvent returns it.
func referenceEvents(t *testing.T, j storage.Journal) (all []*Event) {
	t.Helper()
	err := j.Replay(1, func(index uint64, p []byte) error {
		e, err := referenceDecode(p)
		if err != nil {
			return err
		}
		e.Index = index
		if len(e.Data) == 0 {
			e.Data = nil
		}
		all = append(all, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// TestUpgradeJournalOpens: a journal written before v2 records does not
// open as it is; Upgrade rewrites it to v2 records only, and so the same
// journal once v2 records were appended to it. At every window the
// upgraded journal answers what the reference store gives, and every
// event is the one encoding/json read from the record before.
func TestUpgradeJournalOpens(t *testing.T) {
	east := time.FixedZone("", 5*3600+30*60)
	appended := []*Event{
		{Type: TaskCompleted, Time: ts(1).In(east), ProcessID: "dg-check", InstanceID: "dg-check-1", ElementID: "scan",
			Element: "Re-scan \"IMDG\" class\t3", TaskID: "task-2", Actor: "ops\\desk", Data: map[string]any{"class": 3.0}},
		{Type: InstanceStarted, Time: ts(2), ProcessID: "port-manifest", InstanceID: "port-manifest-2"},
		{Type: "port.berth.assigned", Time: ts(3), ProcessID: "port-manifest", InstanceID: "port-manifest-2"},
		{Type: ProcessDeployed, Time: ts(4), ProcessID: "customs"},
		{Type: InstanceCompleted, Time: ts(5), ProcessID: "port-manifest", InstanceID: "port-manifest-1"},
	}
	for _, window := range []int{0, 1, 16} {
		t.Run(fmt.Sprintf("window=%d/v1", window), func(t *testing.T) {
			dir, j := openV1Copy(t)
			if got, want := formats(t, j), strings.Repeat("{", v1Records); string(got) != want {
				t.Fatalf("record formats %q, want %q", got, want)
			}
			checkUpgrade(t, dir, j, window, v1Records)
		})
		t.Run(fmt.Sprintf("window=%d/mixed", window), func(t *testing.T) {
			dir, j := openV1Copy(t)
			for _, e := range appended {
				rec, err := AppendEncode(nil, e)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			want := strings.Repeat("{", v1Records) + strings.Repeat(string(rune(recordV2)), len(appended))
			if got := formats(t, j); string(got) != want {
				t.Fatalf("record formats %q, want %q", got, want)
			}
			checkUpgrade(t, dir, j, window, v1Records+len(appended))
		})
	}
}

// checkUpgrade holds the journal j over dir, which holds n records, v1
// among them, to the upgrade contract at one window.
func checkUpgrade(t *testing.T, dir string, j *storage.FileJournal, window, n int) {
	t.Helper()
	want := referenceEvents(t, j)
	if _, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: window}); !errors.Is(err, errNotV2) {
		t.Fatalf("a journal holding v1 records opened without an upgrade: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Upgrade(fault.OS, dir)
	if err != nil || st.Files != 1 || st.Records != v1Records {
		t.Fatalf("upgrade = %+v, %v; want the segment and its %d v1 records", st, err, v1Records)
	}
	if st, err := Upgrade(fault.OS, dir); err != nil || st != (storage.UpgradeStats{}) {
		t.Fatalf("second upgrade = %+v, %v; want nothing rewritten", st, err)
	}
	j = reopen(t, dir)
	if got := formats(t, j); string(got) != strings.Repeat(string(rune(recordV2)), n) {
		t.Fatalf("record formats after the upgrade %q", got)
	}
	checkReopen(t, []storage.Journal{j}, window, n)
	s, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var got []*Event
	if err := s.All(func(e *Event) error { got = append(got, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events after the upgrade, %d before", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d after the upgrade\n %+v (%v)\nbefore\n %+v (%v)", i+1, got[i], got[i].Time.Location(), want[i], want[i].Time.Location())
		}
	}
}

// checkUpgradeRecord is the transcoder contract, on any input: no
// panic; a v2 record is kept as it is; a record it transcodes decodes,
// to the event encoding/json reads from the input. The exceptions are
// pinned: an empty data object becomes none, and a JSON time at offset
// zero not spelled "Z" (no v1 encoder wrote one) decodes to the same
// instant in UTC.
func checkUpgradeRecord(t *testing.T, payload []byte) {
	t.Helper()
	out, err := upgradeRecord(payload)
	if err != nil {
		return
	}
	if out == nil {
		if len(payload) == 0 || payload[0] != recordV2 {
			t.Fatalf("upgrade kept %q, which is not a v2 record", payload)
		}
		return
	}
	got, err := DecodeEvent(out)
	if err != nil {
		t.Fatalf("upgrade of %q gives %q, which does not decode: %v", payload, out, err)
	}
	want := &Event{}
	if err := json.Unmarshal(payload, want); err != nil {
		t.Fatalf("upgrade accepted %q, which encoding/json rejects: %v", payload, err)
	}
	want.Index = 0
	if len(want.Data) == 0 {
		want.Data = nil
	}
	if _, off := want.Time.Zone(); off == 0 && got.Time.Equal(want.Time) {
		got.Time = want.Time
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("upgrade of %q decodes to\n %+v (%v)\nencoding/json reads\n %+v (%v)", payload, got, got.Time.Location(), want, want.Time.Location())
	}
}

// FuzzUpgradeRecord holds the v1 transcoder to checkUpgradeRecord. The
// seeds are the decoder's, v1 and v2 records alike.
func FuzzUpgradeRecord(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkUpgradeRecord(t, payload)
	})
}
