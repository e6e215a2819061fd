package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// refJournal is the record-per-slice journal the packed MemJournal must
// match: indices from 1, DropBefore capped at the last record, and the
// indices 0 once nothing is retained.
type refJournal struct {
	first   uint64
	records [][]byte
}

func (r *refJournal) append(p []byte) uint64 {
	r.records = append(r.records, bytes.Clone(p))
	return r.first + uint64(len(r.records)) - 1
}

func (r *refJournal) dropBefore(upTo uint64) {
	if upTo <= r.first {
		return
	}
	drop := min(upTo-r.first, uint64(len(r.records)))
	r.records = r.records[drop:]
	r.first += drop
}

func (r *refJournal) lastIndex() uint64 {
	if len(r.records) == 0 {
		return 0
	}
	return r.first + uint64(len(r.records)) - 1
}

func (r *refJournal) firstIndex() uint64 {
	if len(r.records) == 0 {
		return 0
	}
	return r.first
}

var errStop = errors.New("stop")

// TestMemJournalMatchesReference drives the packed journal and the
// reference with the same seeded stream of appends (sizes around the
// chunk boundary included), cuts (past the end included) and replays
// (from anywhere, stopping early, appending to the payloads they are
// handed), and compares every answer.
func TestMemJournalMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 60, 200,
		memChunkSize - uvarintLen(memChunkSize) - 1, // just under a chunk
		memChunkSize - uvarintLen(memChunkSize),     // exactly one chunk
		memChunkSize,                                // over, with its length
		memChunkSize + 1000,
	}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			m := NewMemJournal()
			ref := &refJournal{first: 1}
			for step := 0; step < 300; step++ {
				switch op := r.Intn(10); {
				case op < 6:
					// Mostly small records, so chunks fill record by record.
					size := sizes[r.Intn(4)]
					if r.Intn(4) == 0 {
						size = sizes[r.Intn(len(sizes))]
					}
					p := make([]byte, size)
					r.Read(p)
					got, err := m.Append(p)
					if size == 0 {
						// An empty record is refused and takes no index.
						if err == nil {
							t.Fatalf("step %d: empty Append = %d, want an error", step, got)
						}
						break
					}
					if want := ref.append(p); err != nil || got != want {
						t.Fatalf("step %d: Append = %d, %v; want %d", step, got, err, want)
					}
				case op < 8:
					upTo := uint64(r.Int63n(int64(ref.first) + int64(len(ref.records)) + 5)) // past the end too
					if err := m.DropBefore(upTo); err != nil {
						t.Fatal(err)
					}
					ref.dropBefore(upTo)
				default:
					end := ref.first + uint64(len(ref.records))
					from := uint64(r.Int63n(int64(end) + 3))
					limit := r.Intn(len(ref.records) + 2)
					var got []uint64
					err := m.Replay(from, func(index uint64, p []byte) error {
						if len(got) == limit {
							return errStop
						}
						if index < ref.first || index >= end {
							return fmt.Errorf("record %d outside [%d, %d)", index, ref.first, end)
						}
						if want := ref.records[index-ref.first]; !bytes.Equal(p, want) {
							return fmt.Errorf("record %d: %d bytes differ from the reference's %d", index, len(p), len(want))
						}
						got = append(got, index)
						// A callee may append to its payload; the next
						// record must not change under it.
						_ = append(p, 0xEE, 0xEE, 0xEE)
						return nil
					})
					if err != nil && !errors.Is(err, errStop) {
						t.Fatalf("step %d: Replay(%d): %v", step, from, err)
					}
					start, wantN := max(from, ref.first), 0
					if start < end {
						wantN = min(int(end-start), limit)
					}
					if len(got) != wantN {
						t.Fatalf("step %d: Replay(%d) stopping at %d gave %d records, want %d", step, from, limit, len(got), wantN)
					}
					for i, index := range got {
						if index != start+uint64(i) {
							t.Fatalf("step %d: Replay(%d) indices %v", step, from, got)
						}
					}
				}
				if m.FirstIndex() != ref.firstIndex() || m.LastIndex() != ref.lastIndex() {
					t.Fatalf("step %d: first/last = %d/%d, want %d/%d", step,
						m.FirstIndex(), m.LastIndex(), ref.firstIndex(), ref.lastIndex())
				}
			}
			// Every retained record, whole, after all the appends above.
			i := 0
			if err := m.Replay(0, func(index uint64, p []byte) error {
				if !bytes.Equal(p, ref.records[i]) {
					return fmt.Errorf("record %d differs", index)
				}
				i++
				return nil
			}); err != nil || i != len(ref.records) {
				t.Fatalf("final replay: %d of %d records, %v", i, len(ref.records), err)
			}
		})
	}
}

// TestMemJournalDropFreesChunks checks that a cut frees the chunks below
// it and that the indices keep counting across an emptied journal.
func TestMemJournalDropFreesChunks(t *testing.T) {
	m := NewMemJournal()
	p := make([]byte, 1000)
	for i := 0; i < 200; i++ {
		m.Append(p)
	}
	if len(m.chunks) < 3 {
		t.Fatalf("%d chunks for 200 KB of records", len(m.chunks))
	}
	m.DropBefore(150)
	for k, c := range m.chunks {
		if chunkEnd(m.chunks, k, m.next) <= 150 {
			t.Fatalf("chunk from %d kept below the cut", c.first)
		}
	}
	if m.chunks[0].first > 150 {
		t.Fatalf("the chunk holding record 150 was freed (first chunk starts at %d)", m.chunks[0].first)
	}
	m.DropBefore(1000)
	if len(m.chunks) != 0 || m.FirstIndex() != 0 || m.LastIndex() != 0 {
		t.Fatalf("after dropping all: %d chunks, first=%d last=%d", len(m.chunks), m.FirstIndex(), m.LastIndex())
	}
	if idx, _ := m.Append([]byte("next")); idx != 201 {
		t.Fatalf("append after dropping all = %d, want 201", idx)
	}
}

// memRecord is the payload of index i in the concurrency test: its own
// index followed by a filler whose size varies, now and then past the
// chunk size.
func memRecord(i uint64) []byte {
	size := 8 + int(i%97)
	if i%500 == 0 {
		size = memChunkSize + 8
	}
	p := bytes.Repeat([]byte{byte(i)}, size)
	binary.LittleEndian.PutUint64(p, i)
	return p
}

// TestMemJournalConcurrentAppendReplay replays, appends and cuts at
// once; run it with -race. Each replay must see contiguous indices, each
// holding its own record whole.
func TestMemJournalConcurrentAppendReplay(t *testing.T) {
	const records = 5000
	m := NewMemJournal()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var prev uint64
				err := m.Replay(1, func(index uint64, p []byte) error {
					if prev != 0 && index != prev+1 {
						return fmt.Errorf("index %d after %d", index, prev)
					}
					prev = index
					if !bytes.Equal(p, memRecord(index)) {
						return fmt.Errorf("record %d torn", index)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := uint64(1); i <= records; i++ {
		if idx, err := m.Append(memRecord(i)); err != nil || idx != i {
			t.Errorf("Append = %d, %v; want %d", idx, err, i)
			break
		}
		if i%700 == 0 {
			m.DropBefore(i - 300)
		}
	}
	close(done)
	wg.Wait()
}

func TestDiscardJournal(t *testing.T) {
	d := NewDiscardJournal()
	for i := uint64(1); i <= 5; i++ {
		if idx, err := d.AppendDurable([]byte("x")); err != nil || idx != i {
			t.Fatalf("append %d = %d, %v", i, idx, err)
		}
	}
	if d.LastIndex() != 5 || d.SyncedIndex() != 5 || d.FirstIndex() != 0 {
		t.Fatalf("last=%d synced=%d first=%d", d.LastIndex(), d.SyncedIndex(), d.FirstIndex())
	}
	if err := d.Replay(1, func(uint64, []byte) error { return errStop }); err != nil {
		t.Fatalf("Replay = %v, want no record", err)
	}
	d.Close()
	if _, err := d.Append(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if d.LastIndex() != 5 {
		t.Fatalf("LastIndex after Close = %d", d.LastIndex())
	}
}
