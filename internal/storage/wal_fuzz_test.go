package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzRecord encodes one on-disk record.
func fuzzRecord(index uint64, payload string) []byte {
	return appendFrame(nil, indexSeed(index), []byte(payload))
}

type indexed struct {
	index   uint64
	payload string
}

// replayAll replays j from its first index and checks that the records
// come numbered FirstIndex, FirstIndex+1, … up to LastIndex.
func replayAll(t *testing.T, j *FileJournal) []indexed {
	t.Helper()
	var out []indexed
	first := j.FirstIndex()
	if err := j.Replay(first, func(i uint64, p []byte) error {
		if want := first + uint64(len(out)); i != want {
			t.Fatalf("replayed index %d, want %d", i, want)
		}
		out = append(out, indexed{i, string(p)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n := len(out); n > 0 && out[n-1].index != j.LastIndex() {
		t.Fatalf("last replayed index %d, LastIndex %d", out[n-1].index, j.LastIndex())
	}
	return out
}

// FuzzOpenSegment opens a journal whose one segment holds any bytes at
// all. Opening must not panic; when it fails (a segment in the older
// framing) it leaves the segment as it was, and what it keeps must
// replay numbered
// without gaps up to LastIndex. It must survive an append, a close and
// a reopen: the records replayed before, then the new one at LastIndex.
// The same bytes as the sealed first segment of two, a clean one at
// index 4 after it, must replay gap-free up to LastIndex, or fail.
func FuzzOpenSegment(f *testing.F) {
	clean := bytes.Join([][]byte{segmentMagic[:], fuzzRecord(1, "a"), fuzzRecord(2, "bb"), fuzzRecord(3, "ccc")}, nil)
	f.Add(clean)
	f.Add(append(append([]byte(nil), clean...), fuzzRecord(4, "dddd")[:3]...)) // torn header
	f.Add(append(append([]byte(nil), clean...), fuzzRecord(4, "dddd")[:7]...)) // torn payload
	badCRC := append([]byte(nil), clean...)
	badCRC[frameMagicLen+len(fuzzRecord(1, "a"))+5] ^= 0xFF // record 2's payload
	f.Add(badCRC)
	huge := binary.AppendUvarint(nil, maxFrame+1)
	huge = append(huge, fuzzRecord(4, "e")[1:]...)
	f.Add(append(append([]byte(nil), clean...), huge...))             // length over 64 MiB
	f.Add(append(append([]byte(nil), clean...), make([]byte, 16)...)) // zero-filled tail
	f.Add(segmentMagic[:2])                                           // torn magic
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenFileJournal(dir, Options{})
		if err != nil {
			if now, rerr := os.ReadFile(filepath.Join(dir, segmentName(1))); rerr != nil || !bytes.Equal(now, seg) {
				t.Fatalf("open failed (%v) and changed the segment (%v)", err, rerr)
			}
			return
		}
		want := replayAll(t, j)
		idx, err := j.Append([]byte("tail"))
		if err != nil {
			j.Close()
			t.Fatalf("append: %v", err)
		}
		if last := j.LastIndex(); last != idx {
			t.Fatalf("LastIndex = %d after appending index %d", last, idx)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want = append(want, indexed{idx, "tail"})

		j2, err := OpenFileJournal(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		if got := replayAll(t, j2); !slices.Equal(got, want) {
			t.Fatalf("after append and reopen replay = %v, want %v", got, want)
		}
		if last := j2.LastIndex(); last != idx {
			t.Fatalf("reopened LastIndex = %d, want %d", last, idx)
		}

		sealed := t.TempDir()
		next := bytes.Join([][]byte{segmentMagic[:], fuzzRecord(4, "dddd"), fuzzRecord(5, "e")}, nil)
		for base, data := range map[uint64][]byte{1: seg, 4: next} {
			if err := os.WriteFile(filepath.Join(sealed, segmentName(base)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j3, err := OpenFileJournal(sealed, Options{})
		if err != nil {
			t.Fatalf("open with a clean last segment: %v", err)
		}
		defer j3.Close()
		wantNext, got := uint64(1), uint64(0)
		err = j3.Replay(1, func(i uint64, _ []byte) error {
			if i != wantNext {
				t.Fatalf("replayed index %d, want %d", i, wantNext)
			}
			got, wantNext = i, wantNext+1
			return nil
		})
		if err == nil && got != j3.LastIndex() {
			t.Fatalf("replay ended at %d without an error, LastIndex %d", got, j3.LastIndex())
		}
	})
}
