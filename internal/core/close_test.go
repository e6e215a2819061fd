package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapshotListing names each file under a data dir's snapshots/ with
// its size and modification time.
func snapshotListing(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d %s", info.Size(), info.ModTime())
	}
	return out
}

// snapshotsSettled reports whether dir's snapshots/ holds newest, at
// most retain snapshots and no temp file, as after the prune of the
// round that wrote newest.
func snapshotsSettled(t *testing.T, dir, newest string, retain int) bool {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	found, n := false, 0
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".tmp":
			return false
		case ".snap":
			found, n = found || e.Name() == newest, n+1
		}
	}
	return found && n <= retain
}

// TestCloseWaitsForSnapshot: Close refuses new automatic snapshot rounds
// and waits for a running one before any journal closes. Across seeded
// rounds of Open, durable starts that trigger snapshots, and Close, no
// shard fail-stops and snapshots/ does not change once Close returns.
func TestCloseWaitsForSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	dir := t.TempDir()
	for round := 0; round < 6; round++ {
		var mu sync.Mutex
		var degraded []string
		b, err := Open(Options{DataDir: dir, SnapshotEvery: 40 + r.Intn(40), OnDegrade: func(shard int, reason string) {
			mu.Lock()
			degraded = append(degraded, fmt.Sprintf("shard %d: %s", shard, reason))
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if _, err := b.DeployFile("../../benchmark/testdata/pipeline.json"); err != nil {
				t.Fatal(err)
			}
		}
		starts := 150 + r.Intn(150)
		for i := 0; i < starts; i++ {
			vars := map[string]any{"amount": r.Intn(10000), "customer": fmt.Sprintf("c-%d", r.Intn(1000)), "region": "north"}
			if _, err := b.Engine.StartInstance("bench-pipeline", vars); err != nil {
				t.Fatalf("round %d, start %d: %v", round, i, err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		closed := snapshotListing(t, dir)
		time.Sleep(20 * time.Millisecond)
		if later := snapshotListing(t, dir); !reflect.DeepEqual(later, closed) {
			t.Errorf("round %d: snapshots/ changed after Close:\n%v\nthen\n%v", round, closed, later)
		}
		mu.Lock()
		if len(degraded) > 0 {
			t.Errorf("round %d: %v", round, degraded)
		}
		mu.Unlock()
	}
}

// TestSnapshotIntervalTrigger: with no append-count trigger, the time
// trigger alone snapshots a journal that advanced, leaves an idle
// journal's snapshots/ alone across many ticks, and Close returns with
// no round running although starts were still landing on the tick.
func TestSnapshotIntervalTrigger(t *testing.T) {
	const interval = 5 * time.Millisecond
	dir := t.TempDir()
	var degraded atomic.Value
	b, err := Open(Options{DataDir: dir, SnapshotInterval: interval, OnDegrade: func(shard int, reason string) {
		degraded.Store(fmt.Sprintf("shard %d: %s", shard, reason))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DeployFile("../../benchmark/testdata/pipeline.json"); err != nil {
		t.Fatal(err)
	}
	start := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			vars := map[string]any{"amount": i, "customer": "c", "region": "north"}
			if _, err := b.Engine.StartInstance("bench-pipeline", vars); err != nil {
				t.Fatal(err)
			}
		}
	}
	start(20)
	last, _ := b.JournalIndexes()
	newest := filepath.Join(dir, "snapshots", fmt.Sprintf("snap-%020d.snap", last))
	// The round that writes newest renames it into place and then prunes
	// the older ones: the idle listing is taken once that prune is done
	// (newest there, at most the two retained snapshots, no temp file).
	// Names only while the round may still run: a listing with sizes
	// would stat files it renames or removes.
	deadline := time.Now().Add(5 * time.Second)
	for !snapshotsSettled(t, dir, filepath.Base(newest), 2) {
		if time.Now().After(deadline) {
			t.Fatalf("no pruned snapshot at journal index %d within 5s: %v", last, snapshotListing(t, dir))
		}
		time.Sleep(interval)
	}

	idle := snapshotListing(t, dir)
	time.Sleep(20 * interval)
	if later := snapshotListing(t, dir); !reflect.DeepEqual(later, idle) {
		t.Fatalf("idle journal was snapshotted again:\n%v\nthen\n%v", idle, later)
	}

	start(100)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	closed := snapshotListing(t, dir)
	time.Sleep(4 * interval)
	if later := snapshotListing(t, dir); !reflect.DeepEqual(later, closed) {
		t.Fatalf("snapshots/ changed after Close:\n%v\nthen\n%v", closed, later)
	}
	if d := degraded.Load(); d != nil {
		t.Fatal(d)
	}
}
