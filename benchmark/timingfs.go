package main

import (
	"io/fs"
	"os"
	"strings"
	"sync"
	"time"

	"bpms/internal/fault"
)

// Storage path classes: what a file under the data dir is for.
const (
	pathState    = "state"    // state WAL segments
	pathHistory  = "history"  // audit-trail WAL segments
	pathSnapshot = "snapshot" // snapshot temp files and images
	pathOther    = "other"
)

// classifyPath tells the three kinds of file under a bpmsd data dir apart
// by the directory core.Open keeps them in.
func classifyPath(name string) string {
	p := "/" + strings.Trim(strings.ReplaceAll(name, "\\", "/"), "/") + "/"
	switch {
	case strings.Contains(p, "/snapshots/"):
		return pathSnapshot
	case strings.Contains(p, "/history/"):
		return pathHistory
	case strings.Contains(p, "/state/"):
		return pathState
	}
	return pathOther
}

// fsCount is the storage work of one path class.
type fsCount struct {
	Writes  int
	Bytes   int64
	Syncs   int
	WriteNS int64
	SyncNS  int64
	Creates int // files created: a snapshot begins with one
	Renames int // snapshot commits: one rename each
}

// timingFS is a fault.FS that times every write and fsync the storage
// layer makes and counts bytes per path class. Passed as core.Options.FS it
// is the benchmark's seam into storage: no code inside the program changes.
type timingFS struct {
	fault.FS
	tr *tracer // spans go here when set

	mu     sync.Mutex
	counts map[string]*fsCount
	syncNS []int64 // every state-WAL fsync, for the median
}

func newTimingFS(tr *tracer) *timingFS {
	return &timingFS{FS: fault.OS, tr: tr, counts: map[string]*fsCount{}}
}

func (t *timingFS) count(class string) *fsCount {
	c := t.counts[class]
	if c == nil {
		c = &fsCount{}
		t.counts[class] = c
	}
	return c
}

// totals returns a copy of the per-class counters.
func (t *timingFS) totals() map[string]fsCount {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]fsCount{}
	for k, v := range t.counts {
		out[k] = *v
	}
	return out
}

// stateSyncs returns the durations of the state-WAL fsyncs from the n-th on.
func (t *timingFS) stateSyncs(from int) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int64(nil), t.syncNS[from:]...)
}

func (t *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	class := classifyPath(name)
	if flag&os.O_CREATE != 0 {
		t.mu.Lock()
		t.count(class).Creates++
		t.mu.Unlock()
	}
	return &timingFile{File: f, fs: t, class: class}, nil
}

// quiesce waits until no snapshot is being written. The engine writes
// snapshots on a goroutine that Close does not wait for; a replay that
// stopped right on a snapshot trigger would otherwise miss it in its
// counts and pull the data dir from under it.
func (t *timingFS) quiesce() {
	idleSince := time.Now()
	for deadline := idleSince.Add(5 * time.Second); time.Now().Before(deadline); {
		t.mu.Lock()
		c := t.count(pathSnapshot)
		busy := c.Creates != c.Renames
		t.mu.Unlock()
		if busy {
			idleSince = time.Now()
		} else if time.Since(idleSince) > 20*time.Millisecond {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Open is wrapped too: the snapshot store fsyncs its directory through a
// read-only handle.
func (t *timingFS) Open(name string) (fault.File, error) {
	f, err := t.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, class: classifyPath(name)}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	t.mu.Lock()
	t.count(classifyPath(newpath)).Renames++
	t.mu.Unlock()
	return err
}

type timingFile struct {
	fault.File
	fs    *timingFS
	class string
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	ns := int64(time.Since(t0))
	f.fs.mu.Lock()
	c := f.fs.count(f.class)
	c.Writes++
	c.Bytes += int64(n)
	c.WriteNS += ns
	f.fs.mu.Unlock()
	if f.fs.tr != nil {
		f.fs.tr.leaf("storage.write", f.class, t0, n)
	}
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	ns := int64(time.Since(t0))
	f.fs.mu.Lock()
	c := f.fs.count(f.class)
	c.Syncs++
	c.SyncNS += ns
	if f.class == pathState {
		f.fs.syncNS = append(f.fs.syncNS, ns)
	}
	f.fs.mu.Unlock()
	if f.fs.tr != nil {
		f.fs.tr.leaf("storage.sync", f.class, t0, 0)
	}
	return err
}
