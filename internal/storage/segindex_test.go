package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bpms/internal/fault"
)

// fixedRecord is record i's payload: 10 bytes, a 15-byte frame.
func fixedRecord(i uint64) []byte { return fmt.Appendf(nil, "record%04d", i) }

// writeFixed appends n fixed records to a journal in dir, in segments
// of 16 records, and closes it.
func writeFixed(t *testing.T, dir string, n uint64) {
	t.Helper()
	j, err := OpenFileJournal(dir, Options{SegmentSize: frameMagicLen + 16*15})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		if _, err := j.Append(fixedRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedSegmentCorrupt damages the first and a middle segment of a
// journal: a flipped byte, a cut-out middle and a zero-filled block.
// Open succeeds (it reads the last segment only), and a replay that
// reaches the damage fails with ErrCorrupt naming the segment and the
// first record it could not read, instead of going on at the next
// segment's base. A replay that starts past the damaged segment does
// not read it. A torn last segment still opens, truncated.
func TestSealedSegmentCorrupt(t *testing.T) {
	const n = 64 // four segments of 16 records
	for _, seg := range []uint64{1, 33} {
		for _, c := range []struct {
			name   string
			damage func(data []byte) []byte // gets the segment, returns it damaged
		}{
			{"flip", func(d []byte) []byte { d[frameMagicLen+5*15+7] ^= 0x01; return d }},
			{"cut", func(d []byte) []byte { return append(d[:frameMagicLen+5*15], d[frameMagicLen+7*15:]...) }},
			{"zero", func(d []byte) []byte { clear(d[frameMagicLen+5*15 : frameMagicLen+7*15]); return d }},
		} {
			t.Run(fmt.Sprintf("segment=%d/%s", seg, c.name), func(t *testing.T) {
				dir := t.TempDir()
				writeFixed(t, dir, n)
				path := filepath.Join(dir, segmentName(seg))
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.damage(data), 0o644); err != nil {
					t.Fatal(err)
				}
				j, err := OpenFileJournal(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				var got []uint64
				err = j.Replay(1, func(i uint64, _ []byte) error { got = append(got, i); return nil })
				var ce *ErrCorrupt
				if !errors.As(err, &ce) || ce.Segment != path || ce.Index != seg+5 {
					t.Fatalf("replay: %v, want ErrCorrupt at record %d of %s", err, seg+5, path)
				}
				if want := seg + 4; len(got) == 0 || got[len(got)-1] != want {
					t.Errorf("replay delivered up to %v, want up to %d", got[len(got)-1:], want)
				}
				if err := j.Replay(seg+16, func(uint64, []byte) error { return nil }); err != nil {
					t.Errorf("replay past the damaged segment: %v", err)
				}
			})
		}
	}
	t.Run("torn-last", func(t *testing.T) {
		dir := t.TempDir()
		writeFixed(t, dir, n)
		path := filepath.Join(dir, segmentName(49))
		if err := os.Truncate(path, frameMagicLen+5*15+7); err != nil {
			t.Fatal(err)
		}
		j, err := OpenFileJournal(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if last := j.LastIndex(); last != 53 {
			t.Errorf("LastIndex = %d, want 53", last)
		}
		if got := replayAll(t, j); len(got) != 53 {
			t.Errorf("replayed %d records, want 53", len(got))
		}
	})
}

// TestUpgradeSealedSegmentCorrupt: the reframer refuses a sealed segment
// that does not run up to the next base, as Replay does.
func TestUpgradeSealedSegmentCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeFixed(t, dir, 64)
	path := filepath.Join(dir, segmentName(17))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Upgrade(fault.OS, dir, nil, nil)
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.Index != 32 {
		t.Errorf("upgrade: %v, want ErrCorrupt at record 32", err)
	}
}

// TestSegmentIndexFiles: a journal with a seal hook writes each sealed
// segment's index file with the hook's body, and Segments returns the
// bodies of valid ones. A replay that begins inside a segment seeks to
// its mark nearest below, before and after a reopen, and delivers the
// same records as one from the segment's start; a mark that does not
// begin its record is forgotten, and the segment read from its start.
func TestSegmentIndexFiles(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 160 << 10} // about 12 600 13-byte frames
	j, err := OpenFileJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sealed []Segment
	j.IndexSegments(func(base, end uint64) []byte {
		sealed = append(sealed, Segment{Base: base, End: end})
		return fmt.Appendf(nil, "body %d-%d", base, end)
	})
	const n = 40000
	for i := uint64(1); i <= n; i++ {
		if _, err := j.Append(fmt.Appendf(nil, "r%07d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sealed) < 3 {
		t.Fatalf("%d segments sealed, want at least 3", len(sealed))
	}
	check := func(t *testing.T, j *FileJournal) {
		t.Helper()
		for _, s := range sealed {
			for _, from := range []uint64{s.Base, s.Base + 1, s.Base + markStride - 1, s.Base + markStride,
				s.Base + markStride + 1, s.Base + 2*markStride + 5, s.End - 1} {
				next := from
				if err := j.Replay(from, func(i uint64, p []byte) error {
					if i != next || !bytes.Equal(p, fmt.Appendf(nil, "r%07d", i)) {
						return fmt.Errorf("record %d (%q), want %d", i, p, next)
					}
					next++
					return nil
				}); err != nil || next != n+1 {
					t.Fatalf("replay from %d: %v, ended at %d", from, err, next)
				}
			}
		}
	}
	check(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, err = OpenFileJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	segs, err := j.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(sealed)+1 || segs[len(segs)-1].Sealed || segs[len(segs)-1].End != n+1 {
		t.Fatalf("Segments = %d, want %d sealed and the active one", len(segs), len(sealed))
	}
	for k, s := range sealed {
		if got := segs[k]; got.Base != s.Base || got.End != s.End || !got.Sealed || string(got.Index) != fmt.Sprintf("body %d-%d", s.Base, s.End) {
			t.Errorf("segment %d = %+v, want %+v with its body", k, got, s)
		}
		if len(j.marks[s.Base]) != int(s.End-s.Base-1)/markStride {
			t.Errorf("segment %d: %d marks", k, len(j.marks[s.Base]))
		}
	}
	check(t, j)

	// A rewritten index file of the first segment whose marks are off
	// by one record.
	seg := sealed[0]
	right := j.marks[seg.Base]
	marks := slices.Clone(right)
	for k := range marks {
		marks[k] += 13
	}
	j.mu.Lock()
	err = j.writeIndexLocked(seg, frameMagicLen+13*int64(seg.End-seg.Base), marks, []byte("body"))
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if segs, err = j.Segments(); err != nil || string(segs[0].Index) != "body" {
		t.Fatalf("Segments after the rewrite: %v, %q", err, segs[0].Index)
	}
	check(t, j) // reads the first segment from its start, and marks it anew
	if got := j.marks[seg.Base]; !slices.Equal(got, right) {
		t.Errorf("marks after the replays %v, want %v", got, right)
	}
	// Stale: written for another size, the file reads as no index.
	j.mu.Lock()
	err = j.writeIndexLocked(seg, 100, nil, []byte("body"))
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if segs, err = j.Segments(); err != nil || segs[0].Index != nil {
		t.Errorf("Segments with a stale index file: %v, %q", err, segs[0].Index)
	}
	if err := j.WriteSegmentIndex(segs[len(segs)-1].Base, []byte("x")); err == nil {
		t.Error("the active segment took an index file")
	}
}
