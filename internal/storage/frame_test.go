package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bpms/internal/fault"
)

// TestFrameOverhead pins the framing's cost exactly: n records of an
// L-byte payload take n·(L+5) bytes for L ≤ 127 and n·(L+6) for
// 128 ≤ L < 16 384, after a segment's magic, or after a snapshot's
// magic and index.
func TestFrameOverhead(t *testing.T) {
	const n = 50
	for _, tc := range []struct{ size, frame int }{
		{1, 6}, {46, 51}, {127, 132}, {128, 134}, {136, 142}, {16383, 16389},
	} {
		t.Run(fmt.Sprint("L=", tc.size), func(t *testing.T) {
			payload := bytes.Repeat([]byte{'p'}, tc.size)
			dir := t.TempDir()
			j, err := OpenFileJournal(dir, Options{SegmentSize: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := j.Append(payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := fileSize(t, filepath.Join(dir, segmentName(1))), int64(frameMagicLen+n*tc.frame); got != want {
				t.Errorf("segment of %d records: %d bytes, want %d", n, got, want)
			}

			s, err := OpenSnapshotStore(filepath.Join(dir, "snaps"), 1)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.Writer(7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := w.Append(payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if got, want := fileSize(t, filepath.Join(dir, "snaps", snapshotName(7))), int64(snapshotHeader+n*tc.frame); got != want {
				t.Errorf("snapshot of %d records: %d bytes, want %d", n, got, want)
			}
		})
	}
}

// TestIndexSeed: a WAL frame's CRC seed is the CRC-32C of its index's 8
// little-endian bytes.
func TestIndexSeed(t *testing.T) {
	for _, index := range []uint64{0, 1, 255, 256, 1 << 32, 1<<64 - 1} {
		if got, want := indexSeed(index), crc32.Checksum(binary.LittleEndian.AppendUint64(nil, index), castagnoli); got != want {
			t.Errorf("indexSeed(%d) = %#x, want %#x", index, got, want)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// v4Segment is a segment in the framing data format 4 wrote, records
// numbered from base.
func v4Segment(base uint64, records ...string) []byte {
	var out []byte
	for i, rec := range records {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint64(hdr[8:16], base+uint64(i))
		crc := crc32.Update(crc32.Checksum(hdr[8:16], castagnoli), castagnoli, []byte(rec))
		binary.LittleEndian.PutUint32(hdr[4:8], crc)
		out = append(append(out, hdr[:]...), rec...)
	}
	return out
}

// v4Snapshot is a snapshot in the framing data format 4 wrote.
func v4Snapshot(index uint64, records ...string) []byte {
	out := binary.LittleEndian.AppendUint64([]byte("BSN2"), index)
	for _, rec := range records {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rec)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum([]byte(rec), castagnoli))
		out = append(out, rec...)
	}
	return out
}

// TestOldFramingRefusedThenUpgraded: a segment in the format 4 framing
// does not open, and is left byte for byte as it was; a snapshot in it
// is skipped. Upgrade with no transcoder reframes both, every record
// kept at its index; the journal then opens, and a second upgrade
// rewrites nothing.
func TestOldFramingRefusedThenUpgraded(t *testing.T) {
	dir := t.TempDir()
	segPath, snapPath := filepath.Join(dir, segmentName(3)), filepath.Join(dir, snapshotName(2))
	seg, snap := v4Segment(3, "c", "dd", "eee"), v4Snapshot(2, "a", "b")
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileJournal(dir, Options{}); !errors.Is(err, errOldFraming) {
		t.Fatalf("an old-framed segment opened: %v", err)
	}
	if now, _ := os.ReadFile(segPath); !bytes.Equal(now, seg) {
		t.Fatal("the failed open changed the old-framed segment")
	}
	s, err := OpenSnapshotStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sn, err := s.LatestSnapshot(); err != nil || sn != nil {
		t.Fatalf("an old-framed snapshot was read: %+v, %v", sn, err)
	}

	if st, err := Upgrade(fault.OS, dir, nil, nil); err != nil || st != (UpgradeStats{Files: 2}) {
		t.Fatalf("upgrade = %+v, %v; want the segment and the snapshot reframed", st, err)
	}
	if st, err := Upgrade(fault.OS, dir, nil, nil); err != nil || st != (UpgradeStats{}) {
		t.Fatalf("second upgrade = %+v, %v; want nothing rewritten", st, err)
	}
	j, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if idx, err := j.Append([]byte("ffff")); err != nil || idx != 6 {
		t.Fatalf("append after the upgrade = %d, %v; want 6", idx, err)
	}
	want := []indexed{{3, "c"}, {4, "dd"}, {5, "eee"}, {6, "ffff"}}
	if got := replayAll(t, j); !slices.Equal(got, want) {
		t.Errorf("replay = %v, want %v", got, want)
	}
	sn, err := s.LatestSnapshot()
	if err != nil || sn == nil || sn.Index != 2 {
		t.Fatalf("upgraded snapshot = %+v, %v", sn, err)
	}
	if got := collectSnapshot(t, sn); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("upgraded snapshot records %q", got)
	}
}

// TestFailedAppendTakesNoIndex: an append that fails takes no index. A
// file journal whose write hits a full disk keeps its LastIndex, and so
// does every append after it; reopened, it replays what reached the
// disk without a gap and numbers the next append after it. A closed
// memory journal, and an empty record, take no index either.
func TestFailedAppendTakesNoIndex(t *testing.T) {
	dir := t.TempDir()
	fsys := fault.NewInjector(fault.OS, fault.Plan{ENOSPCAfter: 1 << 10})
	j, err := OpenFileJournal(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	var want []indexed
	for i := 1; i <= 5; i++ {
		rec := fmt.Sprint("r-", i)
		if _, err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		want = append(want, indexed{uint64(i), rec})
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Larger than the write buffer, so this append writes to the file.
	if idx, err := j.Append(bytes.Repeat([]byte{'x'}, 128<<10)); err == nil {
		t.Fatalf("append past the disk's end = %d, want an error", idx)
	}
	if last := j.LastIndex(); last != 5 {
		t.Fatalf("LastIndex = %d after a failed append, want 5", last)
	}
	if _, err := j.Append([]byte("after")); err == nil {
		t.Fatal("append after a failed write succeeded on a broken segment")
	}
	if _, err := j.Append(nil); err == nil || j.LastIndex() != 5 {
		t.Fatalf("empty append = %v, LastIndex %d", err, j.LastIndex())
	}
	j.Close()

	j, err = OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if idx, err := j.Append([]byte("r-6")); err != nil || idx != 6 {
		t.Fatalf("append after reopen = %d, %v; want 6", idx, err)
	}
	if got := replayAll(t, j); !slices.Equal(got, append(want, indexed{6, "r-6"})) {
		t.Errorf("replay after reopen = %v", got)
	}

	m := NewMemJournal()
	if _, err := m.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Append([]byte("b")); !errors.Is(err, ErrClosed) || m.LastIndex() != 1 {
		t.Errorf("append to a closed memory journal = %v, LastIndex %d; want ErrClosed, 1", err, m.LastIndex())
	}
}

// snapshotFile is the bytes of a snapshot at index holding records.
func snapshotFile(index uint64, records ...string) []byte {
	out := binary.LittleEndian.AppendUint64(snapshotMagic[:], index)
	for _, rec := range records {
		out = appendFrame(out, 0, []byte(rec))
	}
	return out
}

// FuzzSnapshotRecords reads any bytes at all as a snapshot file. It
// must not panic, and must not misread a record: the records the frame
// scan delivers re-encode to exactly the bytes they were read from, a
// prefix of the file. The store answers with all of them when they end
// the file cleanly, and with no snapshot at all (damaged, skipped)
// otherwise.
func FuzzSnapshotRecords(f *testing.F) {
	clean := snapshotFile(9, "a", "bb", "ccc")
	f.Add(clean)
	next := appendFrame(nil, 0, []byte("dddd"))
	f.Add(append(slices.Clone(clean), next[:3]...)) // torn header
	f.Add(append(slices.Clone(clean), next[:7]...)) // torn payload
	badCRC := slices.Clone(clean)
	badCRC[snapshotHeader+len(appendFrame(nil, 0, []byte("a")))+5] ^= 0xFF // record 2's payload
	f.Add(badCRC)
	huge := binary.AppendUvarint(slices.Clone(clean), maxFrame+1)
	f.Add(append(huge, next[1:]...)) // length over the cap
	f.Add(v4Snapshot(9, "a", "bb", "ccc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var records []string
		intact := false
		if len(data) >= snapshotHeader && [frameMagicLen]byte(data) == snapshotMagic {
			intact = scanSnapshotRecords(bytes.NewReader(data[snapshotHeader:]), func(p []byte) error {
				records = append(records, string(p))
				return nil
			})
			read := snapshotFile(binary.LittleEndian.Uint64(data[frameMagicLen:]), records...)
			if !bytes.HasPrefix(data, read) || intact != (len(read) == len(data)) {
				t.Fatalf("read %q (intact %v) from %q", records, intact, data)
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSnapshotStore(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := s.LatestSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !intact {
			if sn != nil {
				t.Fatalf("a damaged snapshot was read: %+v", sn)
			}
			return
		}
		if sn == nil {
			t.Fatal("an intact snapshot was skipped")
		}
		if got := collectSnapshot(t, sn); !slices.Equal(got, records) {
			t.Fatalf("Iterate = %q, the scan read %q", got, records)
		}
	})
}
