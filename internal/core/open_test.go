package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bpms/internal/fault"
	"bpms/internal/storage"
)

// sealedDataDir writes a one-shard data dir in 2 KiB segments, so both
// the state journal and the history journal hold sealed segments, and
// returns the options that open it and the oldest segment of each.
func sealedDataDir(t *testing.T) (opts Options, stateSeg, histSeg string) {
	t.Helper()
	dir := t.TempDir()
	opts = Options{DataDir: dir, SegmentSize: 2048}
	b, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.DeployFile("../../benchmark/testdata/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := b.Engine.StartInstance(p.ID, map[string]any{"amount": i, "customer": "c", "region": "north"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	oldest := func(sub string) string {
		segs, err := filepath.Glob(filepath.Join(dir, sub, "wal-*.log"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("%d %s segments (%v), want a sealed one", len(segs), sub, err)
		}
		return segs[0]
	}
	return opts, oldest("state"), oldest("history")
}

// flipByte damages a segment in its middle.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines returns the goroutine count once it holds still: a
// journal closed just before may still be returning from its committer.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// goroutinesBackTo returns the goroutine count once it is want again,
// or after a second.
func goroutinesBackTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// corruptSegments lists the segments named by every storage.ErrCorrupt
// in err's tree.
func corruptSegments(err error) []string {
	var out []string
	var walk func(error)
	walk = func(err error) {
		var ce *storage.ErrCorrupt
		switch x := err.(type) {
		case nil:
		case interface{ Unwrap() []error }:
			for _, e := range x.Unwrap() {
				walk(e)
			}
		default:
			if errors.As(err, &ce) {
				out = append(out, ce.Segment)
			}
		}
	}
	walk(err)
	return out
}

// TestOpenDamagedSide: the history replays beside the shard loads, so a
// damaged sealed segment on either side, or on both, fails Open with the
// damaged files named (both errors joined when both sides fail), and
// the failed Open leaves no goroutine running: no history replay, no
// journal committer, no shard snapshotter.
func TestOpenDamagedSide(t *testing.T) {
	for _, tc := range []struct {
		name         string
		state, hist  bool
		wantSegments int
	}{
		{"history", false, true, 1},
		{"state", true, false, 1},
		{"both", true, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts, stateSeg, histSeg := sealedDataDir(t)
			var want []string
			if tc.state {
				flipByte(t, stateSeg)
				want = append(want, stateSeg)
			}
			if tc.hist {
				flipByte(t, histSeg)
				want = append(want, histSeg)
			}
			// A started shard would run a snapshotter on this interval.
			opts.SnapshotInterval = time.Hour
			before := settledGoroutines()
			b, err := Open(opts)
			if err == nil {
				b.Close()
				t.Fatalf("open with %v damaged succeeded", want)
			}
			got := corruptSegments(err)
			if len(got) != tc.wantSegments {
				t.Errorf("open: %v; ErrCorrupt names %v, want %v", err, got, want)
			}
			for _, seg := range want {
				if !strings.Contains(err.Error(), seg) {
					t.Errorf("open: %v, want it to name %s", err, seg)
				}
			}
			if n := goroutinesBackTo(before); n != before {
				buf := make([]byte, 1<<16)
				t.Errorf("failed open left %d goroutines, want %d:\n%s", n, before, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// overlapFS holds the first read of a history segment until a shard
// has opened its snapshot, so an Open that replays the history before
// the shards load cannot finish that read. It gives up after a timeout
// and fails the test instead of hanging. The state journal's tail scan
// at open is not the signal: it precedes the shard loads in either
// order.
type overlapFS struct {
	fault.FS
	t        *testing.T
	histDir  string
	loaded   chan struct{}
	loadOnce sync.Once
	holdOnce sync.Once
}

func (f *overlapFS) Open(name string) (fault.File, error) {
	switch {
	case filepath.Ext(name) == ".snap":
		f.loadOnce.Do(func() { close(f.loaded) })
	case filepath.Dir(name) == f.histDir && filepath.Ext(name) == ".log":
		f.holdOnce.Do(func() {
			select {
			case <-f.loaded:
			case <-time.After(5 * time.Second):
				f.t.Errorf("the first history segment read waited 5s for a shard to open its snapshot: the open is serial")
			}
		})
	}
	return f.FS.Open(name)
}

// TestOpenOverlapsHistoryAndShards: the history replay and the shard
// loads run at the same time. The history's first segment read is held
// until a shard reads its snapshot; a serial open would time out there.
// The reopened system is whole either way.
func TestOpenOverlapsHistoryAndShards(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.DeployFile("../../benchmark/testdata/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := b.Engine.StartInstance(p.ID, map[string]any{"amount": i, "customer": "c", "region": "north"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Engine.Snapshot(); err != nil {
		t.Fatal(err)
	}
	events := b.History.Stats().Events
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := &overlapFS{FS: fault.OS, t: t, histDir: filepath.Join(dir, "history"), loaded: make(chan struct{})}
	b, err = Open(Options{DataDir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := len(b.Engine.Instances()); got != 10 {
		t.Errorf("reopened with %d instances, want 10", got)
	}
	if got := b.History.Stats().Events; got != events {
		t.Errorf("reopened with %d history events, want %d", got, events)
	}
}
