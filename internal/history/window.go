package history

import "encoding/binary"

// windowChunk is the capacity of one record chunk. Above 32 KiB the Go
// allocator hands out whole 8 KiB pages with no size-class rounding, so
// a 64 KiB chunk wastes nothing, and about 1 500 records of ~41 B share
// its one allocation (storage.MemJournal sizes its chunks the same way).
const windowChunk = 64 << 10

// packedWindow is a stripe's resident records in the form the journal holds
// them: each payload behind its uvarint length, packed back to back into
// pointer-free byte chunks, with one locator per record. Records are
// decoded only when read, so a resident event costs its record's bytes
// and a locator, and the collector never scans them.
//
// The locators are a ring: recs[head] is the oldest record, at journal
// index first, and the journal indexes of the n records are contiguous.
// A chunk's bytes are written once, past every byte a locator already
// points at, and a dropped chunk is never reused, so a snapshot of the
// chunk list and the locators taken under the stripe lock stays readable
// after the lock is released.
type packedWindow struct {
	limit  int      // records kept (0 = unbounded)
	chunks [][]byte // oldest first; only the last one still fills
	base   uint32   // sequence number of chunks[0]
	recs   []recLoc // ring of len(recs) slots, n of them used
	head   int
	n      int
	first  uint64 // journal index of the oldest record (0 when empty)
}

// recLoc locates one record: its chunk's sequence number and the offset
// of its length prefix there.
type recLoc struct{ chunk, off uint32 }

// full reports whether the next add must drop the oldest record first.
func (w *packedWindow) full() bool { return w.limit > 0 && w.n >= w.limit }

// add appends the record at journal index to the window (the caller
// makes room first). It copies rec, and frees the chunks that no longer
// hold a resident record.
func (w *packedWindow) add(index uint64, rec []byte) {
	need := binary.MaxVarintLen64 + len(rec) // room for the longest length prefix
	last := len(w.chunks) - 1
	if last < 0 || cap(w.chunks[last])-len(w.chunks[last]) < need {
		w.chunks = append(w.chunks, make([]byte, 0, max(need, windowChunk)))
		last++
	}
	c := w.chunks[last]
	loc := recLoc{chunk: w.base + uint32(last), off: uint32(len(c))}
	c = binary.AppendUvarint(c, uint64(len(rec)))
	w.chunks[last] = append(c, rec...)
	if w.n == len(w.recs) {
		w.grow()
	}
	if w.n == 0 {
		w.first = index
	}
	w.recs[(w.head+w.n)%len(w.recs)] = loc
	w.n++
	for w.base < w.recs[w.head].chunk {
		w.chunks[0] = nil
		w.chunks = w.chunks[1:]
		w.base++
	}
}

// grow enlarges the locator ring, oldest record first, never past limit.
func (w *packedWindow) grow() { w.reserve(len(w.recs) + 1) }

// reserve sizes the locator ring for n records at once, to the size
// adding them one by one would grow it to: 16 doubled as often as they
// need, never past limit.
func (w *packedWindow) reserve(n int) {
	if n <= len(w.recs) {
		return
	}
	size := max(16, len(w.recs))
	for size < n {
		size *= 2
	}
	if w.limit > 0 {
		size = min(size, w.limit)
	}
	recs := make([]recLoc, size)
	copied := copy(recs, w.recs[w.head:])
	copy(recs[copied:], w.recs[:w.head])
	w.recs, w.head = recs, 0
}

// drop forgets the oldest record. Its chunk is freed by the next add.
func (w *packedWindow) drop() {
	w.head = (w.head + 1) % len(w.recs)
	w.n--
	w.first++
	if w.n == 0 {
		w.head, w.first = 0, 0
	}
}

// oldest returns the oldest record.
func (w *packedWindow) oldest() []byte { return w.record(w.recs[w.head]) }

// at returns the record at journal index, which must be resident.
func (w *packedWindow) at(index uint64) []byte {
	return w.record(w.recs[(w.head+int(index-w.first))%len(w.recs)])
}

// record returns the bytes loc points at, capped so an append to them
// cannot overwrite the next record.
func (w *packedWindow) record(loc recLoc) []byte {
	c := w.chunks[loc.chunk-w.base][loc.off:]
	size, k := binary.Uvarint(c)
	end := k + int(size)
	return c[k:end:end]
}

// snapshot copies the chunk list and the locators, oldest first, into a
// window a reader can use without the stripe lock.
func (w *packedWindow) snapshot() packedWindow {
	s := packedWindow{chunks: append([][]byte(nil), w.chunks...), base: w.base, n: w.n, first: w.first}
	s.recs = make([]recLoc, w.n)
	copied := copy(s.recs, w.recs[w.head:min(w.head+w.n, len(w.recs))])
	copy(s.recs[copied:], w.recs[:w.n-copied])
	return s
}

// heapBytes is what the window holds on the heap: its chunks and its
// locator ring.
func (w *packedWindow) heapBytes() int {
	total := len(w.recs) * 8
	for _, c := range w.chunks {
		total += cap(c)
	}
	return total
}
