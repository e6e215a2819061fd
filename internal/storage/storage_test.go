package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func testJournals(t *testing.T) map[string]func() Journal {
	t.Helper()
	return map[string]func() Journal{
		"mem": func() Journal { return NewMemJournal() },
		"file": func() Journal {
			j, err := OpenFileJournal(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
	}
}

func TestJournalAppendReplay(t *testing.T) {
	for name, open := range testJournals(t) {
		t.Run(name, func(t *testing.T) {
			j := open()
			defer j.Close()
			if j.LastIndex() != 0 || j.FirstIndex() != 0 {
				t.Fatalf("empty journal indices: first=%d last=%d", j.FirstIndex(), j.LastIndex())
			}
			for i := 1; i <= 100; i++ {
				idx, err := j.Append([]byte(fmt.Sprintf("record-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				if idx != uint64(i) {
					t.Fatalf("index = %d, want %d", idx, i)
				}
			}
			if j.LastIndex() != 100 || j.FirstIndex() != 1 {
				t.Fatalf("indices: first=%d last=%d", j.FirstIndex(), j.LastIndex())
			}
			var got []string
			err := j.Replay(1, func(idx uint64, payload []byte) error {
				got = append(got, string(payload))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 100 || got[0] != "record-1" || got[99] != "record-100" {
				t.Fatalf("replay got %d records; first %q last %q", len(got), got[0], got[len(got)-1])
			}
			// Partial replay.
			var tail []uint64
			if err := j.Replay(95, func(idx uint64, _ []byte) error {
				tail = append(tail, idx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(tail) != 6 || tail[0] != 95 {
				t.Fatalf("partial replay = %v", tail)
			}
		})
	}
}

func TestJournalReplayErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for name, open := range testJournals(t) {
		t.Run(name, func(t *testing.T) {
			j := open()
			defer j.Close()
			for i := 0; i < 5; i++ {
				if _, err := j.Append([]byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			n := 0
			err := j.Replay(1, func(uint64, []byte) error {
				n++
				if n == 3 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if n != 3 {
				t.Fatalf("callback ran %d times, want 3", n)
			}
		})
	}
}

func TestJournalClosed(t *testing.T) {
	for name, open := range testJournals(t) {
		t.Run(name, func(t *testing.T) {
			j := open()
			if _, err := j.Append([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append([]byte("b")); !errors.Is(err, ErrClosed) {
				t.Errorf("Append after close: %v, want ErrClosed", err)
			}
			if err := j.Sync(); !errors.Is(err, ErrClosed) {
				t.Errorf("Sync after close: %v, want ErrClosed", err)
			}
		})
	}
}

func TestFileJournalReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastIndex() != 50 {
		t.Fatalf("LastIndex after reopen = %d, want 50", j2.LastIndex())
	}
	idx, err := j2.Append([]byte("r51"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 51 {
		t.Fatalf("next index = %d, want 51", idx)
	}
	count := 0
	if err := j2.Replay(1, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 51 {
		t.Fatalf("replay count = %d, want 51", count)
	}
}

func TestFileJournalSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payload := bytes.Repeat([]byte("x"), 50)
	for i := 0; i < 40; i++ {
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if j.SegmentCount() < 5 {
		t.Fatalf("segments = %d, want several with tiny segment size", j.SegmentCount())
	}
	count := 0
	if err := j.Replay(1, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 40 {
		t.Fatalf("replay across segments = %d, want 40", count)
	}
}

func TestFileJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: append garbage to the segment.
	entries, _ := os.ReadDir(dir)
	var seg string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			seg = filepath.Join(dir, e.Name())
		}
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: valid-looking length but truncated payload.
	f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 9, 9})
	f.Close()

	j2, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer j2.Close()
	if j2.LastIndex() != 10 {
		t.Fatalf("LastIndex after torn-tail recovery = %d, want 10", j2.LastIndex())
	}
	var got []string
	if err := j2.Replay(1, func(_ uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[9] != "rec-10" {
		t.Fatalf("replay after recovery: %v", got)
	}
	// And the journal still accepts appends at the right index.
	idx, err := j2.Append([]byte("rec-11"))
	if err != nil || idx != 11 {
		t.Fatalf("append after recovery: idx=%d err=%v", idx, err)
	}
}

func TestFileJournalCorruptMiddleTruncates(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := j.Append([]byte("aaaaaaaa")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Flip a byte in the middle of the file: everything from the
	// corrupt record onward is discarded.
	entries, _ := os.ReadDir(dir)
	seg := filepath.Join(dir, entries[0].Name())
	data, _ := os.ReadFile(seg)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(seg, data, 0o644)

	j2, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastIndex() >= 5 {
		t.Fatalf("LastIndex = %d, want < 5 after mid-file corruption", j2.LastIndex())
	}
}

func TestDropBefore(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		j := NewMemJournal()
		for i := 1; i <= 10; i++ {
			j.Append([]byte{byte(i)})
		}
		if err := j.DropBefore(6); err != nil {
			t.Fatal(err)
		}
		if j.FirstIndex() != 6 || j.LastIndex() != 10 {
			t.Fatalf("first=%d last=%d", j.FirstIndex(), j.LastIndex())
		}
		var idxs []uint64
		j.Replay(1, func(i uint64, _ []byte) error { idxs = append(idxs, i); return nil })
		if len(idxs) != 5 || idxs[0] != 6 {
			t.Fatalf("replay = %v", idxs)
		}
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenFileJournal(dir, Options{SegmentSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		payload := bytes.Repeat([]byte("z"), 40)
		for i := 1; i <= 30; i++ {
			j.Append(payload)
		}
		before := j.SegmentCount()
		if err := j.DropBefore(20); err != nil {
			t.Fatal(err)
		}
		if j.SegmentCount() >= before {
			t.Fatalf("segments not dropped: %d -> %d", before, j.SegmentCount())
		}
		if j.FirstIndex() == 1 {
			t.Error("FirstIndex still 1 after drop")
		}
		// Remaining records replay fine and include the newest.
		var last uint64
		j.Replay(1, func(i uint64, _ []byte) error { last = i; return nil })
		if last != 30 {
			t.Fatalf("last replayed = %d, want 30", last)
		}
	})
}

// TestSyncPolicies: under every sync policy a file journal takes plain
// appends, syncs and closes, and a reopen finds every record.
func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncBatch} {
		dir := t.TempDir()
		j, err := OpenFileJournal(dir, Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := j.Append([]byte("data")); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenFileJournal(dir, Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if got := j2.LastIndex(); got != 20 {
			t.Fatalf("%s: reopened LastIndex = %d, want 20", pol, got)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	j, err := OpenFileJournal(t.TempDir(), Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var wg sync.WaitGroup
	const goroutines, per = 8, 50
	seen := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx, err := j.Append([]byte("concurrent"))
				if err != nil {
					t.Error(err)
					return
				}
				seen[g] = append(seen[g], idx)
			}
		}(g)
	}
	wg.Wait()
	// All indices unique and the journal holds all records.
	all := map[uint64]bool{}
	for _, s := range seen {
		for _, idx := range s {
			if all[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			all[idx] = true
		}
	}
	if len(all) != goroutines*per {
		t.Fatalf("unique indices = %d, want %d", len(all), goroutines*per)
	}
	count := 0
	j.Replay(1, func(uint64, []byte) error { count++; return nil })
	if count != goroutines*per {
		t.Fatalf("replay = %d records, want %d", count, goroutines*per)
	}
}

func TestSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := latestImage(t, s); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	for i := uint64(10); i <= 40; i += 10 {
		if err := writeImage(s, i, []byte(fmt.Sprintf("state@%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	idx, data, ok, err := latestImage(t, s)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	if idx != 40 || string(data) != "state@40" {
		t.Fatalf("LatestSnapshot = %d %q", idx, data)
	}
	// Retention pruned old snapshots.
	entries, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); ok {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("retained %d snapshots, want 2", snaps)
	}
}

func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	writeImage(s, 10, []byte("good-old"))
	writeImage(s, 20, []byte("good-new"))
	// Corrupt the newest snapshot.
	path := filepath.Join(dir, snapshotName(20))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	idx, payload, ok, err := latestImage(t, s)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	if idx != 10 || string(payload) != "good-old" {
		t.Fatalf("fallback = %d %q, want 10 good-old", idx, payload)
	}
}

// Property: appended payloads replay byte-identical in order, for both
// implementations.
func TestQuickAppendReplayIdentity(t *testing.T) {
	f := func(payloads [][]byte) bool {
		if len(payloads) > 50 {
			payloads = payloads[:50]
		}
		mem := NewMemJournal()
		dir, err := os.MkdirTemp("", "walquick")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		file, err := OpenFileJournal(dir, Options{SegmentSize: 512})
		if err != nil {
			return false
		}
		defer file.Close()
		// An empty record is refused and takes no index.
		var kept [][]byte
		for _, p := range payloads {
			if len(p) > 0 {
				kept = append(kept, p)
			}
		}
		for _, j := range []Journal{mem, file} {
			for _, p := range payloads {
				if _, err := j.Append(p); (err != nil) != (len(p) == 0) {
					return false
				}
			}
			i := 0
			err := j.Replay(1, func(index uint64, got []byte) error {
				if index != uint64(i+1) || !bytes.Equal(got, kept[i]) {
					return fmt.Errorf("mismatch at %d", i)
				}
				i++
				return nil
			})
			if err != nil || i != len(kept) || j.LastIndex() != uint64(len(kept)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
