package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bpms/internal/fault"
)

// SnapshotStore persists point-in-time state images keyed by the
// journal index they cover. Writes are atomic (write to a temp file,
// fsync, rename, fsync the directory), and snapshot contents are
// CRC-protected.
//
// A snapshot is a magic header followed by length-prefixed,
// CRC-protected records appended one at a time through a Writer.
// Producers and consumers hold one record in memory, never the whole
// image, so snapshot memory is bounded regardless of instance count.
type SnapshotStore struct {
	dir    string
	fs     fault.FS
	mu     sync.Mutex
	retain int
}

// Streaming snapshot file layout:
//
//	[4B magic "BSN5"][8B little-endian index]
//	then per record: a frame (frame.go) whose CRC covers the payload
//
// A clean EOF ends the record stream; a torn or corrupt frame marks the
// whole snapshot unusable (snapshots are written atomically, so a
// damaged tail means the file is not to be trusted) and readers fall
// back to the next-older snapshot. So does a file with another magic,
// such as "BSN2", the framing data format 4 wrote, which only Upgrade
// reads.

var snapshotMagic = [frameMagicLen]byte{'B', 'S', 'N', '5'}

// snapshotHeader is the magic and the index a snapshot opens with.
const snapshotHeader = frameMagicLen + 8

// OpenSnapshotStore opens (or creates) a snapshot store in dir,
// retaining at most retain snapshots (older ones are pruned on write;
// retain <= 0 means keep 2).
func OpenSnapshotStore(dir string, retain int) (*SnapshotStore, error) {
	return OpenSnapshotStoreFS(dir, retain, fault.OS)
}

// OpenSnapshotStoreFS is OpenSnapshotStore over an explicit
// filesystem; chaos runs pass a fault.Injector.
func OpenSnapshotStoreFS(dir string, retain int, fsys fault.FS) (*SnapshotStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create snapshot dir: %w", err)
	}
	if retain <= 0 {
		retain = 2
	}
	return &SnapshotStore{dir: dir, fs: fsys, retain: retain}, nil
}

func snapshotName(index uint64) string {
	return fmt.Sprintf("snap-%020d.snap", index)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[5:len(name)-5], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// syncDir fsyncs a directory so a just-completed rename in it survives
// a crash: the rename itself is atomic, but without the directory fsync
// the new directory entry may still be lost.
func syncDir(fsys fault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// commitTemp atomically publishes a fully written, fsynced temp file
// as the snapshot for index: rename, fsync the directory, prune old
// snapshots. Called under s.mu.
func (s *SnapshotStore) commitTempLocked(tmp string, index uint64) error {
	final := filepath.Join(s.dir, snapshotName(index))
	if err := s.fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(s.fs, s.dir); err != nil {
		return err
	}
	return s.pruneLocked()
}

// SnapshotWriter streams one snapshot: records appended through it go
// straight to a temp file (via a small write buffer), so the producer
// never materialises the full image. Commit atomically publishes the
// snapshot; Abort discards it.
type SnapshotWriter struct {
	store *SnapshotStore
	index uint64
	tmp   string
	f     fault.File
	w     *bufio.Writer
	done  bool
}

// Writer starts a streaming snapshot covering journal indices <=
// index. The caller must finish with Commit or Abort.
func (s *SnapshotStore) Writer(index uint64) (*SnapshotWriter, error) {
	// Unique temp name: concurrent writers (e.g. an admin snapshot
	// racing the append-count trigger) must not clobber each other.
	tmp := filepath.Join(s.dir, fmt.Sprintf("snap-%020d.tmp", index))
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create snapshot temp: %w", err)
	}
	w := bufio.NewWriterSize(f, 256<<10)
	var hdr [snapshotHeader]byte
	copy(hdr[:], snapshotMagic[:])
	binary.LittleEndian.PutUint64(hdr[frameMagicLen:], index)
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return nil, err
	}
	return &SnapshotWriter{store: s, index: index, tmp: tmp, f: f, w: w}, nil
}

// Index reports the journal index this snapshot covers.
func (w *SnapshotWriter) Index() uint64 { return w.index }

// Append adds one record to the snapshot stream.
func (w *SnapshotWriter) Append(payload []byte) error {
	if w.done {
		return fmt.Errorf("storage: snapshot writer already closed")
	}
	if err := checkPayload(payload); err != nil {
		return err
	}
	var hdr [maxFrameHead]byte
	n := putFrameHead(&hdr, 0, payload)
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Commit flushes and fsyncs the stream, atomically renames it into
// place, fsyncs the directory, and prunes old snapshots.
func (w *SnapshotWriter) Commit() error {
	if w.done {
		return fmt.Errorf("storage: snapshot writer already closed")
	}
	w.done = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		w.store.fs.Remove(w.tmp)
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.store.fs.Remove(w.tmp)
		return err
	}
	if err := w.f.Close(); err != nil {
		w.store.fs.Remove(w.tmp)
		return err
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	return w.store.commitTempLocked(w.tmp, w.index)
}

// Abort discards the in-progress snapshot.
func (w *SnapshotWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	w.store.fs.Remove(w.tmp)
}

func (s *SnapshotStore) indicesLocked() ([]uint64, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseSnapshotName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

func (s *SnapshotStore) pruneLocked() error {
	idxs, err := s.indicesLocked()
	if err != nil {
		return err
	}
	for len(idxs) > s.retain {
		if err := s.fs.Remove(filepath.Join(s.dir, snapshotName(idxs[0]))); err != nil {
			return err
		}
		idxs = idxs[1:]
	}
	return nil
}

// Snapshot is one on-disk snapshot opened for reading.
type Snapshot struct {
	// Index is the journal index the snapshot covers.
	Index uint64
	path  string
	fs    fault.FS
}

// LatestSnapshot returns the newest intact snapshot, or nil when no
// usable snapshot exists. Streaming snapshots are
// verified record-by-record (a truncated or corrupt tail disqualifies
// the file); damaged snapshots fall back to the next-older one.
func (s *SnapshotStore) LatestSnapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idxs, err := s.indicesLocked()
	if err != nil {
		return nil, err
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, snapshotName(idxs[i]))
		sn, ok := openSnapshot(s.fs, path)
		if ok {
			return sn, nil
		}
	}
	return nil, nil
}

// openSnapshot validates one snapshot file and describes it. The
// verification pass streams through the file (bounded memory); the
// actual contents are re-read by Iterate.
func openSnapshot(fsys fault.FS, path string) (*Snapshot, bool) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, false
	}
	if [frameMagicLen]byte(hdr[:]) != snapshotMagic {
		return nil, false
	}
	index := binary.LittleEndian.Uint64(hdr[frameMagicLen:])
	if !scanSnapshotRecords(f, nil) {
		return nil, false
	}
	return &Snapshot{Index: index, path: path, fs: fsys}, true
}

// scanSnapshotRecords reads frames from r until EOF, verifying every
// CRC; fn (when non-nil) receives each payload, which is only valid for
// the duration of the call. It reports whether the stream ended
// cleanly.
func scanSnapshotRecords(r io.Reader, fn func(payload []byte) error) bool {
	fr := newFrameReader(r)
	for {
		payload, _, err := fr.next(0)
		if err != nil {
			return err == io.EOF // clean end vs damage
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return true // caller error, not corruption; Iterate surfaces it
			}
		}
	}
}

// Iterate streams the snapshot's records to fn in write order. The
// payload slice is only valid for the duration of the call.
func (sn *Snapshot) Iterate(fn func(payload []byte) error) error {
	f, err := sn.fs.Open(sn.path)
	if err != nil {
		return fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(snapshotHeader, io.SeekStart); err != nil {
		return err
	}
	var cbErr error
	ok := scanSnapshotRecords(f, func(p []byte) error {
		if err := fn(p); err != nil {
			cbErr = err
			return err
		}
		return nil
	})
	if cbErr != nil {
		return cbErr
	}
	if !ok {
		// The file validated at open time; damage appearing between
		// open and read is genuine corruption.
		return &ErrCorrupt{Segment: sn.path}
	}
	return nil
}
