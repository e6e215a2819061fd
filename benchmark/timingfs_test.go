package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestClassifyPath(t *testing.T) {
	for path, want := range map[string]string{
		"/d/state/wal-00000001.log":         pathState,
		"/d/history/wal-00000001.log":       pathHistory,
		"/d/history/stripe-0001/wal-1.log":  pathHistory,
		"/d/snapshots/snap-0001.tmp":        pathSnapshot,
		"/d/snapshots":                      pathSnapshot, // the directory fsync of a commit
		"/d/shard-0001/state/wal-1.log":     pathState,
		"/d/shard-0001/snapshots/snap-1.sn": pathSnapshot,
		"/d/statefile":                      pathOther,
	} {
		if got := classifyPath(path); got != want {
			t.Errorf("classifyPath(%q) = %s, want %s", path, got, want)
		}
	}
}

func TestTimingFSCountsBytesAndSyncs(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"state", "history", "snapshots"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracer()
	tfs := newTimingFS(tr)
	write := func(path string, sizes ...int) {
		t.Helper()
		f, err := tfs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			if _, err := f.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(dir, "state", "wal-1.log"), 100, 28)
	write(filepath.Join(dir, "history", "wal-1.log"), 64)
	tmp := filepath.Join(dir, "snapshots", "snap-1.tmp")
	write(tmp, 1000)
	if err := tfs.Rename(tmp, filepath.Join(dir, "snapshots", "snap-1.snap")); err != nil {
		t.Fatal(err)
	}
	got := tfs.totals()
	for class, want := range map[string]fsCount{
		pathState:    {Writes: 2, Bytes: 128, Syncs: 1, Creates: 1},
		pathHistory:  {Writes: 1, Bytes: 64, Syncs: 1, Creates: 1},
		pathSnapshot: {Writes: 1, Bytes: 1000, Syncs: 1, Creates: 1, Renames: 1},
	} {
		g := got[class]
		g.WriteNS, g.SyncNS = 0, 0
		if g != want {
			t.Errorf("%s: %+v, want %+v", class, g, want)
		}
	}
	if len(tfs.stateSyncs(0)) != 1 {
		t.Errorf("recorded %d state fsync durations, want 1", len(tfs.syncNS))
	}
	// No request was in flight: every storage call is background work.
	for _, s := range tr.snapshot() {
		if s.Parent != 0 {
			t.Errorf("span %+v has a parent with no request in flight", s)
		}
	}
	tfs.quiesce() // one snapshot created, one committed: returns at once
}
