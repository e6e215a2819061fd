package history

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bpms/internal/storage"
)

// testdata/v1-journal holds a history journal of 22 records written by
// the JSON encoder this package used before v2 records: escaped
// strings, zones other than UTC, data, a custom type, instance-less
// events, the zero time, a record with a leading "index".
const v1Journal, v1Records = "testdata/v1-journal", 22

// openV1Copy opens a copy of the v1 journal (opening may truncate a
// torn tail, and the mixed case appends).
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

// TestUpgradeJournalOpens: a journal written before v2 records opens
// unchanged, and so does the same journal once an upgraded server has
// appended v2 records to it; at every window, every answer equals the
// reference store's.
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
			_, j := openV1Copy(t)
			if got, want := formats(t, j), strings.Repeat("{", v1Records); string(got) != want {
				t.Fatalf("record formats %q, want %q", got, want)
			}
			checkReopen(t, []storage.Journal{j}, window, v1Records)
		})
		t.Run(fmt.Sprintf("window=%d/mixed", window), func(t *testing.T) {
			dir, j := openV1Copy(t)
			writer, err := NewStriped([]storage.Journal{j}, StoreOptions{Window: window, Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range appended {
				if err := writer.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := writer.Close(); err != nil {
				t.Fatal(err)
			}
			j = reopen(t, dir)
			want := strings.Repeat("{", v1Records) + strings.Repeat(string(rune(recordV2)), len(appended))
			if got := formats(t, j); string(got) != want {
				t.Fatalf("record formats %q, want %q", got, want)
			}
			checkReopen(t, []storage.Journal{j}, window, v1Records+len(appended))
		})
	}
}
