package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeImage stores a snapshot of one record, data.
func writeImage(s *SnapshotStore, index uint64, data []byte) error {
	w, err := s.Writer(index)
	if err != nil {
		return err
	}
	if err := w.Append(data); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}

// writeBlob stores a snapshot in the single-blob format engines wrote
// before streaming snapshots, [8B index][4B crc][data], published (and
// older snapshots pruned) as a streaming one is. The store reads only
// streaming snapshots; Upgrade rewrites a blob into one.
func writeBlob(s *SnapshotStore, index uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, 12, 12+len(data))
	binary.LittleEndian.PutUint64(buf[0:8], index)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(data, castagnoli))
	tmp := filepath.Join(s.dir, "snap.tmp")
	if err := os.WriteFile(tmp, append(buf, data...), 0o644); err != nil {
		return err
	}
	return s.commitTempLocked(tmp, index)
}

// latestImage returns the newest intact snapshot's index and its records
// run together; ok is false when no snapshot is intact.
func latestImage(t *testing.T, s *SnapshotStore) (index uint64, data []byte, ok bool, err error) {
	t.Helper()
	sn, err := s.LatestSnapshot()
	if err != nil || sn == nil {
		return 0, nil, false, err
	}
	return sn.Index, []byte(strings.Join(collectSnapshot(t, sn), "")), true, nil
}

func snapshotFiles(t *testing.T, dir string) []uint64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseSnapshotName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	return out
}

// TestSnapshotPruneKeepsNewest pins pruneLocked's exact survivors: the
// highest `retain` indices remain, everything older is removed, and
// LatestSnapshot tracks the newest survivor.
func TestSnapshotPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 7; i++ {
		if err := writeImage(s, i*100, []byte(fmt.Sprintf("img-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := snapshotFiles(t, dir)
	want := []uint64{500, 600, 700}
	if len(got) != len(want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v", got, want)
		}
	}
	idx, data, ok, err := latestImage(t, s)
	if err != nil || !ok || idx != 700 || string(data) != "img-7" {
		t.Fatalf("LatestSnapshot = %d %q ok=%v err=%v", idx, data, ok, err)
	}
}

// TestSnapshotRetainDefault: retain <= 0 falls back to keeping 2.
func TestSnapshotRetainDefault(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := writeImage(s, i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := snapshotFiles(t, dir); len(got) != 2 {
		t.Fatalf("retained %d snapshots, want default 2", len(got))
	}
}

// TestSnapshotLatestSkipsPartialFile: a truncated snapshot (shorter
// than its 12-byte header — the shape a crash mid-write outside the
// atomic rename path would leave) is skipped in favour of an older
// valid one.
func TestSnapshotLatestSkipsPartialFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeImage(s, 10, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// A newer snapshot exists but holds only 3 bytes.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(20)), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	// And an empty one newer still.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(30)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	idx, data, ok, err := latestImage(t, s)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	if idx != 10 || string(data) != "good" {
		t.Fatalf("LatestSnapshot = %d %q, want 10 good", idx, data)
	}
}

// TestSnapshotLatestAllCorrupt: when every snapshot fails its CRC,
// LatestSnapshot reports no usable snapshot (recovery then replays the whole
// journal) rather than an error.
func TestSnapshotLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := writeImage(s, i*10, []byte(fmt.Sprintf("img-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range snapshotFiles(t, dir) {
		path := filepath.Join(dir, snapshotName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, ok, err := latestImage(t, s)
	if err != nil {
		t.Fatalf("LatestSnapshot errored: %v", err)
	}
	if ok {
		t.Fatal("LatestSnapshot reported a usable snapshot from all-corrupt store")
	}
}

// TestSnapshotStrayFilesIgnored: non-snapshot names (including the
// write-path temp file) never count as snapshots or survive into
// LatestSnapshot.
func TestSnapshotStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snap.tmp", "notes.txt", "snap-zzz.snap", "snap-1.snapx"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok, _ := latestImage(t, s); ok {
		t.Fatal("stray files mistaken for snapshots")
	}
	if err := writeImage(s, 5, []byte("real")); err != nil {
		t.Fatal(err)
	}
	idx, data, ok, err := latestImage(t, s)
	if err != nil || !ok || idx != 5 || string(data) != "real" {
		t.Fatalf("LatestSnapshot = %d %q ok=%v err=%v", idx, data, ok, err)
	}
}
