package storage

import (
	"bytes"
	"testing"
	"time"
)

// TestRollSyncsOutgoingSegment verifies that rolling to a new segment
// leaves the outgoing segment complete on disk even when no group
// commit runs (the tick is a minute away and no append waits for an
// ack): every record in a non-active segment must be readable directly
// from the file, without Sync or Close.
func TestRollSyncsOutgoingSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{SegmentSize: 128, BatchMaxDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payload := bytes.Repeat([]byte("z"), 40)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock()
	segments := append([]uint64(nil), j.segments...)
	activeBase := j.activeBase
	j.mu.Unlock()
	if len(segments) < 3 {
		t.Fatalf("want >=3 segments for a meaningful roll test, got %d", len(segments))
	}
	// Every index below the active segment's base must be present in
	// the rolled segments' files.
	seen := map[uint64]bool{}
	for _, base := range segments {
		if base == activeBase {
			continue
		}
		if _, _, err := j.scanSegment(base, func(index uint64, _ []byte) error {
			seen[index] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for idx := uint64(1); idx < activeBase; idx++ {
		if !seen[idx] {
			t.Fatalf("record %d missing from rolled segments (active base %d)", idx, activeBase)
		}
	}
}

// TestDropBeforeFirstIndexBoundaries checks the invariant that after
// any DropBefore, FirstIndex equals the first index Replay delivers
// (or 0 when the journal is empty) — including drops landing exactly
// on segment boundaries and the drop-everything edge.
func TestDropBeforeFirstIndexBoundaries(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenFileJournal(dir, Options{SegmentSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		payload := bytes.Repeat([]byte("z"), 40)
		for i := 0; i < 30; i++ {
			if _, err := j.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		j.mu.Lock()
		bases := append([]uint64(nil), j.segments...)
		j.mu.Unlock()
		// Exercise each segment boundary exactly, one past it, and the
		// past-the-end edge.
		var cuts []uint64
		for _, b := range bases {
			cuts = append(cuts, b, b+1)
		}
		cuts = append(cuts, j.LastIndex()+1)
		for _, upTo := range cuts {
			if err := j.DropBefore(upTo); err != nil {
				t.Fatal(err)
			}
			var first uint64
			if err := j.Replay(1, func(i uint64, _ []byte) error {
				if first == 0 {
					first = i
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if j.FirstIndex() != first {
				t.Fatalf("DropBefore(%d): FirstIndex=%d but replay starts at %d", upTo, j.FirstIndex(), first)
			}
			if first > upTo {
				t.Fatalf("DropBefore(%d): lost retained records, replay starts at %d", upTo, first)
			}
		}
	})
	t.Run("mem-all-dropped", func(t *testing.T) {
		j := NewMemJournal()
		for i := 0; i < 5; i++ {
			j.Append([]byte("x"))
		}
		if err := j.DropBefore(6); err != nil {
			t.Fatal(err)
		}
		if j.FirstIndex() != 0 {
			t.Fatalf("FirstIndex=%d after dropping everything, want 0", j.FirstIndex())
		}
		idx, err := j.Append([]byte("y"))
		if err != nil {
			t.Fatal(err)
		}
		if j.FirstIndex() != idx {
			t.Fatalf("FirstIndex=%d after re-seeding append %d", j.FirstIndex(), idx)
		}
	})
}
