package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bpms/internal/engine"
	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
)

// T16StorageLifecycle measures the storage lifecycle: journal replay
// (serial vs parallel segment replay), snapshot write, and cold start
// from that snapshot against the serial replay. One journal fixture of
// N instances is built once and copied per configuration, so every row
// replays the same bytes. Small WAL segments give the parallel replayer real
// fan-out (one goroutine per sealed segment, bounded by the worker
// pool) and let snapshot truncation actually discard files.
func T16StorageLifecycle(scale Scale) *Table {
	n := scale.pick(5000, 100000)
	workers := runtime.GOMAXPROCS(0)
	segSize := int64(scale.pick(256<<10, 1<<20))
	t := &Table{
		ID:     "T16",
		Title:  "storage lifecycle: journal replay, snapshot write, and cold start from the snapshot",
		Header: []string{"config", "instances", "wall", "alloc", "vs serial replay"},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d (decode workers and segment readers parallelize across cores)",
		runtime.GOMAXPROCS(0), runtime.NumCPU()))

	base, err := os.MkdirTemp("", "bench-t16")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(base)
	fixture := filepath.Join(base, "fixture")
	buildT16Fixture(fixture, n, segSize)

	jopts := storage.Options{SegmentSize: segSize}
	openEngine := func(dir string, cfg engine.Config) (*engine.Engine, storage.Journal) {
		j, err := storage.OpenFileJournal(filepath.Join(dir, "state"), jopts)
		if err != nil {
			panic(err)
		}
		cfg.Journal = j
		e, err := engine.New(cfg)
		if err != nil {
			panic(err)
		}
		return e, j
	}
	row := func(label string, d time.Duration, alloc uint64, ref time.Duration) {
		speedup := "-"
		if ref > 0 && d > 0 {
			speedup = fmt.Sprintf("%.2fx", ref.Seconds()/d.Seconds())
		}
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprint(n), secs(d), fmt.Sprintf("%.1fMB", float64(alloc)/(1<<20)), speedup,
		})
	}

	// Journal-only replay: the full fixture journal, serial vs parallel.
	var serialReplay time.Duration
	for _, cfg := range []struct {
		label   string
		workers int
	}{
		{"journal replay, serial", 1},
		{fmt.Sprintf("journal replay, %d workers", workers), workers},
	} {
		dir := filepath.Join(base, fmt.Sprintf("replay-%d", cfg.workers))
		copyTree(fixture, dir)
		var (
			e *engine.Engine
			j storage.Journal
		)
		d, alloc := measureAlloc(func() {
			e, j = openEngine(dir, engine.Config{RecoveryWorkers: cfg.workers})
		})
		if got := len(e.Instances()); got != n {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: recovered %d of %d", cfg.label, got, n))
		}
		j.Close()
		if cfg.workers == 1 {
			serialReplay = d
			row(cfg.label, d, alloc, d)
		} else {
			row(cfg.label, d, alloc, serialReplay)
		}
	}

	// Snapshot write, then cold start from the written snapshot (the
	// journal prefix it covers is truncated, so recovery reads the
	// snapshot alone), against the serial journal replay above.
	dir := filepath.Join(base, "snap")
	copyTree(fixture, dir)
	snaps, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		panic(err)
	}
	e, j := openEngine(dir, engine.Config{Snapshots: snaps})
	d, alloc := measureAlloc(func() {
		if err := e.Snapshot(); err != nil {
			panic(err)
		}
	})
	j.Close()
	row("snapshot write", d, alloc, 0)
	snaps2, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		panic(err)
	}
	var (
		e2 *engine.Engine
		j2 storage.Journal
	)
	d2, alloc2 := measureAlloc(func() {
		e2, j2 = openEngine(dir, engine.Config{Snapshots: snaps2, RecoveryWorkers: workers})
	})
	if got := len(e2.Instances()); got != n {
		t.Notes = append(t.Notes, fmt.Sprintf("cold start: recovered %d of %d", got, n))
	}
	j2.Close()
	row(fmt.Sprintf("cold start from snapshot, %d workers", workers), d2, alloc2, serialReplay)
	return t
}

// buildT16Fixture populates dir/state with n instances of a short
// service-task process (each start appends a deploy-covered record
// chain and ends completed, so recovery cost is pure decode).
func buildT16Fixture(dir string, n int, segSize int64) {
	j, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: segSize})
	if err != nil {
		panic(err)
	}
	e, err := engine.New(engine.Config{Journal: j})
	if err != nil {
		panic(err)
	}
	e.RegisterHandler(model.NoopHandler, func(engine.TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	proc := model.Sequence(3)
	if err := e.Deploy(proc); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		vars := map[string]any{
			"amount":   i,
			"customer": fmt.Sprintf("customer-%08d", i),
			"note":     "storage lifecycle fixture instance with a moderately sized payload",
		}
		if _, err := e.StartInstance(proc.ID, vars); err != nil {
			panic(err)
		}
	}
	if err := j.Close(); err != nil {
		panic(err)
	}
}

// measureAlloc runs f and reports its wall time and total bytes
// allocated (ΔTotalAlloc across the call, after a settling GC).
func measureAlloc(f func()) (time.Duration, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc
}

// copyTree copies a fixture directory recursively.
func copyTree(src, dst string) {
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		panic(err)
	}
}
