package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Group-commit tests. The durability contract under test:
// once AppendDurable returns, the record survives a crash — modelled
// here by reopening the directory with a fresh journal WITHOUT closing
// the first one (a closed journal flushes everything, which would mask
// group-commit bugs).

func TestAppendDurableConcurrentBatch(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{
		SegmentSize: 8 << 10, // force several rolls mid-run
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 16, 25
	payload := []byte("group-commit-record-payload-0123456789")
	var wg sync.WaitGroup
	indices := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx, err := j.AppendDurable(payload)
				if err != nil {
					t.Error(err)
					return
				}
				indices[g] = append(indices[g], idx)
			}
		}(g)
	}
	wg.Wait()

	// Every ack'd index is unique and within range.
	all := map[uint64]bool{}
	for _, s := range indices {
		for _, idx := range s {
			if all[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			all[idx] = true
		}
	}
	if len(all) != goroutines*per {
		t.Fatalf("acked %d unique indices, want %d", len(all), goroutines*per)
	}

	// Crash simulation: reopen WITHOUT closing. Every acked record
	// must already be on disk.
	j2, err := OpenFileJournal(dir, Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recovered := map[uint64]bool{}
	if err := j2.Replay(1, func(idx uint64, _ []byte) error {
		recovered[idx] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for idx := range all {
		if !recovered[idx] {
			t.Fatalf("acked record %d lost after crash-reopen", idx)
		}
	}
}

// TestAppendDurableAckOrdering checks batch-boundary fsync ordering:
// an ack for index i implies every record appended before it (plain or
// durable) is durable too, because a group commit always covers the
// whole buffered prefix.
func TestAppendDurableAckOrdering(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		// A few plain appends (no individual durability)…
		for i := 0; i < 10; i++ {
			if _, err := j.Append([]byte(fmt.Sprintf("plain-%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		// …then one durable append: its ack covers the prefix.
		idx, err := j.AppendDurable([]byte(fmt.Sprintf("durable-%d", round)))
		if err != nil {
			t.Fatal(err)
		}
		if synced := j.SyncedIndex(); synced < idx {
			t.Fatalf("round %d: SyncedIndex = %d after ack for %d", round, synced, idx)
		}
	}
	last := j.LastIndex()
	// Crash: everything up to the last ack must be recoverable.
	j2, err := OpenFileJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.LastIndex(); got != last {
		t.Fatalf("recovered LastIndex = %d, want %d", got, last)
	}
}

// TestSyncBatchTickFlushesPlainAppends: a journal opened with no
// options group-commits, so without any durability ack the delay clock
// (BatchMaxDelay, 2ms by default) alone must push buffered appends to
// disk; Sync and Close then still succeed.
func TestSyncBatchTickFlushesPlainAppends(t *testing.T) {
	j, err := OpenFileJournal(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		if last, err = j.Append([]byte("tick-flushed")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for j.SyncedIndex() < last {
		if time.Now().After(deadline) {
			t.Fatalf("SyncedIndex = %d, want %d within 2s (tick did not flush)", j.SyncedIndex(), last)
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncBatchBoundedBatch: a full batch wakes the committer before
// the tick. With a long tick, batchMaxRecords plain appends must
// still become durable promptly.
func TestSyncBatchBoundedBatch(t *testing.T) {
	j, err := OpenFileJournal(t.TempDir(), Options{
		BatchMaxDelay: time.Minute, // tick effectively disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < batchMaxRecords; i++ {
		if _, err := j.Append([]byte("batch-full")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for j.SyncedIndex() < batchMaxRecords {
		if time.Now().After(deadline) {
			t.Fatalf("SyncedIndex = %d, want %d (full batch did not trigger commit)", j.SyncedIndex(), batchMaxRecords)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAppendDurableAllPolicies: AppendDurable keeps its contract for
// the file journal's one policy and for the in-memory journal.
func TestAppendDurableAllPolicies(t *testing.T) {
	t.Run(SyncBatch.String(), func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenFileJournal(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			idx, err := j.AppendDurable([]byte(fmt.Sprintf("d-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			if idx != uint64(i) {
				t.Fatalf("index = %d, want %d", idx, i)
			}
		}
		if synced := j.SyncedIndex(); synced != 10 {
			t.Fatalf("SyncedIndex = %d, want 10", synced)
		}
		// Crash-reopen: all acked records present.
		j2, err := OpenFileJournal(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if got := j2.LastIndex(); got != 10 {
			t.Fatalf("recovered LastIndex = %d, want 10", got)
		}
	})
	t.Run("mem", func(t *testing.T) {
		m := NewMemJournal()
		if idx, err := m.AppendDurable([]byte("x")); err != nil || idx != 1 {
			t.Fatalf("idx=%d err=%v", idx, err)
		}
		if m.SyncedIndex() != 1 {
			t.Fatalf("SyncedIndex = %d", m.SyncedIndex())
		}
	})
}

// TestAppendDurableAfterClose: durable appends on a closed journal
// fail fast instead of hanging on a dead committer.
func TestAppendDurableAfterClose(t *testing.T) {
	j, err := OpenFileJournal(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendDurable([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := j.AppendDurable([]byte("b"))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AppendDurable hung after Close")
	}
	// Close is idempotent with the committer already drained.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncReleasesBatchWaiters: an explicit Sync makes everything
// durable, so SyncedIndex catches up even between committer ticks.
func TestSyncReleasesBatchWaiters(t *testing.T) {
	j, err := OpenFileJournal(t.TempDir(), Options{BatchMaxDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte("pre-sync")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.SyncedIndex(); got != 5 {
		t.Fatalf("SyncedIndex after Sync = %d, want 5", got)
	}
}
