package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bpms/internal/fault"
)

func collectSnapshot(t *testing.T, sn *Snapshot) []string {
	t.Helper()
	var out []string
	err := sn.Iterate(func(p []byte) error {
		out = append(out, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	return out
}

// TestSnapshotWriterRoundtrip: records appended through the streaming
// writer come back byte-identical and in order, under the committed
// index.
func TestSnapshotWriterRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer(42)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", `{"id":"i-1","vars":{"k":"v"}}`}
	for _, rec := range want {
		if err := w.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	sn, err := s.LatestSnapshot()
	if err != nil || sn == nil {
		t.Fatalf("LatestSnapshot: sn=%v err=%v", sn, err)
	}
	if sn.Index != 42 {
		t.Fatalf("snapshot index=%d, want 42", sn.Index)
	}
	got := collectSnapshot(t, sn)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestStreamingSnapshotCorruptTailFallsBack: a streaming snapshot with
// a torn or corrupted tail is skipped in favour of the previous valid
// snapshot — the crash-consistency contract of the chunked format.
func TestStreamingSnapshotCorruptTailFallsBack(t *testing.T) {
	writeStream := func(s *SnapshotStore, index uint64, recs ...string) {
		t.Helper()
		w, err := s.Writer(index)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for name, corrupt := range map[string]func(data []byte) []byte{
		"truncated tail":    func(d []byte) []byte { return d[:len(d)-3] },
		"flipped tail byte": func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenSnapshotStore(dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			writeStream(s, 10, "old-1", "old-2")
			writeStream(s, 20, "new-1", "new-2", "new-3")
			path := filepath.Join(dir, snapshotName(20))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			sn, err := s.LatestSnapshot()
			if err != nil || sn == nil {
				t.Fatalf("LatestSnapshot: sn=%v err=%v", sn, err)
			}
			if sn.Index != 10 {
				t.Fatalf("fell back to index %d, want 10", sn.Index)
			}
			got := collectSnapshot(t, sn)
			if len(got) != 2 || got[0] != "old-1" || got[1] != "old-2" {
				t.Fatalf("fallback records = %v", got)
			}
		})
	}
}

// TestSnapshotWriterAbort: an aborted writer leaves no snapshot and no
// temp file behind, and the store keeps working.
func TestSnapshotWriterAbort(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if sn, err := s.LatestSnapshot(); err != nil || sn != nil {
		t.Fatalf("after abort: sn=%v err=%v", sn, err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		t.Fatalf("stray file after abort: %s", e.Name())
	}
	w2, err := s.Writer(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	sn, err := s.LatestSnapshot()
	if err != nil || sn == nil || sn.Index != 8 {
		t.Fatalf("after abort+commit: sn=%v err=%v", sn, err)
	}
}

// TestLegacyAndStreamingCoexist: a blob snapshot beside streaming ones
// is never read as one: with the streaming snapshot damaged, no snapshot
// is usable. Upgrade rewrites the blob, under its name and
// index, into the records split makes of its image, leaves the damaged
// snapshot alone, and a second run rewrites nothing.
func TestLegacyAndStreamingCoexist(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshotStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBlob(s, 10, []byte("legacy image")); err != nil {
		t.Fatal(err)
	}
	if err := writeImage(s, 20, []byte("stream-rec")); err != nil {
		t.Fatal(err)
	}
	sn, err := s.LatestSnapshot()
	if err != nil || sn == nil || sn.Index != 20 {
		t.Fatalf("LatestSnapshot = %+v err=%v, want streaming@20", sn, err)
	}
	path := filepath.Join(dir, snapshotName(20))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if sn, err = s.LatestSnapshot(); err != nil || sn != nil {
		t.Fatalf("fallback = %+v err=%v, want none: a blob is not read", sn, err)
	}

	split := func(image []byte, emit func([]byte)) error {
		for _, rec := range strings.Fields(string(image)) {
			emit([]byte(rec))
		}
		return nil
	}
	keep := func(p []byte) ([]byte, error) { return nil, nil }
	st, err := Upgrade(fault.OS, dir, keep, split)
	if err != nil || st != (UpgradeStats{Files: 1, Records: 2}) {
		t.Fatalf("upgrade = %+v, %v; want the blob rewritten as 2 records", st, err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Error("the damaged snapshot was rewritten")
	}
	sn, err = s.LatestSnapshot()
	if err != nil || sn == nil || sn.Index != 10 {
		t.Fatalf("after the upgrade LatestSnapshot = %+v err=%v, want 10", sn, err)
	}
	if got := collectSnapshot(t, sn); strings.Join(got, ",") != "legacy,image" {
		t.Fatalf("upgraded records = %q", got)
	}
	if st, err := Upgrade(fault.OS, dir, keep, split); err != nil || st != (UpgradeStats{}) {
		t.Errorf("second upgrade = %+v, %v; want nothing rewritten", st, err)
	}
}

// TestUpgradeJournalRewritesInPlace: segments holding a record the
// transcoder changes are rewritten under their names, every record at
// its index, the others byte for byte; segments with nothing to change
// are not touched, and the journal opens and appends after.
func TestUpgradeJournalRewritesInPlace(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 12; i++ {
		rec := fmt.Sprintf("new-%02d", i)
		if i%5 == 1 {
			rec = fmt.Sprintf("old-%02d", i)
		}
		if _, err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		want = append(want, strings.Replace(rec, "old", "new", 1))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		before[e.Name()], _ = os.ReadFile(filepath.Join(dir, e.Name()))
	}
	transcode := func(p []byte) ([]byte, error) {
		if rest, ok := strings.CutPrefix(string(p), "old"); ok {
			return []byte("new" + rest), nil
		}
		return nil, nil
	}
	st, err := Upgrade(fault.OS, dir, transcode, nil)
	if err != nil || st.Records != 3 || st.Files == 0 || st.Files == len(before) {
		t.Fatalf("upgrade = %+v, %v; want 3 records in some of the %d segments", st, err, len(before))
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != len(before) {
		t.Fatalf("%d files after the upgrade, %d before", len(entries), len(before))
	}
	unchanged := 0
	for _, e := range entries {
		data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		if bytes.Equal(data, before[e.Name()]) {
			unchanged++
		}
	}
	if unchanged != len(before)-st.Files {
		t.Errorf("%d segments unchanged, want %d", unchanged, len(before)-st.Files)
	}
	if st, err := Upgrade(fault.OS, dir, transcode, nil); err != nil || st != (UpgradeStats{}) {
		t.Errorf("second upgrade = %+v, %v; want nothing rewritten", st, err)
	}
	j, err = OpenFileJournal(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if idx, err := j.Append([]byte("new-12")); err != nil || idx != 13 {
		t.Fatalf("append after the upgrade = %d, %v", idx, err)
	}
	want = append(want, "new-12")
	var got []string
	if err := j.Replay(1, func(index uint64, p []byte) error {
		if index != uint64(len(got)+1) {
			return fmt.Errorf("record %q at index %d", p, index)
		}
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("replayed %q, want %q", got, want)
	}
}

// TestReplayOrderAndEquivalence: FileJournal.Replay delivers every
// record with index >= from, in strict ascending index order and with
// its appended payload, for suffixes starting inside and between
// segments.
func TestReplayOrderAndEquivalence(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const n = 2000
	for i := 1; i <= n; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.mu.Lock()
	segments := append([]uint64(nil), j.segments...)
	j.mu.Unlock()
	if len(segments) < 3 {
		t.Fatalf("%d segments, want several", len(segments))
	}
	// Inside a segment, at a segment's first record, at its last, and
	// around the journal's end.
	froms := []uint64{1, 777, segments[1], segments[2] - 1, n - 1, n, n + 1}
	for _, from := range froms {
		var gotIdx []uint64
		var gotPayload []string
		err := j.Replay(from, func(index uint64, payload []byte) error {
			gotIdx = append(gotIdx, index)
			gotPayload = append(gotPayload, string(payload))
			return nil
		})
		if err != nil {
			t.Fatalf("from=%d: %v", from, err)
		}
		want := 0
		if from <= n {
			want = int(uint64(n) - from + 1)
		}
		if len(gotIdx) != want {
			t.Fatalf("from=%d: %d records, want %d", from, len(gotIdx), want)
		}
		for k, idx := range gotIdx {
			wantIdx := from + uint64(k)
			if idx != wantIdx {
				t.Fatalf("from=%d: record %d has index %d, want %d (strict order)", from, k, idx, wantIdx)
			}
			if wantPayload := fmt.Sprintf("rec-%05d", wantIdx); gotPayload[k] != wantPayload {
				t.Fatalf("from=%d: payload[%d] = %q, want %q", from, k, gotPayload[k], wantPayload)
			}
		}
	}
}

// TestReplayConcurrentAppends: replaying while a writer keeps appending
// (and rolling segments) races nothing (run with -race) and delivers at
// least the prefix that existed when the replay began, in order.
func TestReplayConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{SegmentSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const pre = 600
	for i := 1; i <= pre; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := pre
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if _, err := j.Append([]byte(fmt.Sprintf("rec-%05d", i))); err != nil {
				return
			}
		}
	}()
	var last uint64
	err = j.Replay(1, func(index uint64, payload []byte) error {
		if index != last+1 {
			t.Errorf("index %d after %d", index, last)
		}
		if want := fmt.Sprintf("rec-%05d", index); string(payload) != want {
			t.Errorf("payload %q at index %d, want %q", payload, index, want)
		}
		last = index
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if last < pre {
		t.Fatalf("replayed up to %d, want at least the pre-existing %d", last, pre)
	}
}
