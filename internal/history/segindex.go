package history

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"strconv"
	"strings"

	"bpms/internal/binrec"
	"bpms/internal/storage"
)

// The body of a history segment's index file (storage frames it, and
// ties it to its segment's base, record count and bytes): the segment's
// event count per instance.
//
//	[uvarint records of no instance]
//	[uvarint groups], each [process ID as a string][uvarint entries],
//	  each entry [uvarint seq delta][uvarint count]
//	[uvarint literal IDs], each [ID as a string][uvarint count]
//
// An instance ID process + "-" + n (n canonical decimal, as instanceSeq
// reads it) is entry n of its process's group, whose numbers ascend as
// deltas from 0, the way records hold numbered IDs; any other ID is
// spelled out. Strings are binrec strings. The counts add up to the
// segment's records, or the body is damaged.

var errBadIndex = errors.New("history: damaged segment index")

// segTally counts the active segment's records for its index file: the
// instances with records there (instance.seg), and the records of no
// instance.
type segTally struct {
	insts []*instance
	none  int
}

// add counts one record of inst (nil for none).
func (t *segTally) add(inst *instance) {
	if inst == nil {
		t.none++
		return
	}
	if inst.seg == 0 {
		t.insts = append(t.insts, inst)
	}
	inst.seg++
}

// reset starts the next segment's tally.
func (t *segTally) reset() {
	for _, inst := range t.insts {
		inst.seg = 0
	}
	clear(t.insts)
	t.insts, t.none = t.insts[:0], 0
}

// sealLocked is the stripe's storage.FileJournal.IndexSegments hook: it
// returns the index body of the segment that just sealed, records [base,
// end), and starts the next segment's tally. It runs inside the journal
// append of stripe.append, under st.mu. When the stripe did not count
// every record of the segment (one was appended to the journal behind
// the store's back) it returns nil: no index file beats a wrong one.
func (st *stripe) sealLocked(base, end uint64) []byte {
	body := st.seg.encode(end - base)
	st.seg.reset()
	return body
}

// splitID returns where an instance ID process + "-" + n splits, the
// index of its dash, when the encoder would number it under process, and
// 0 for an ID it spells out.
func splitID(id string) int {
	dash := strings.LastIndexByte(id, '-')
	if dash <= 0 || instanceSeq(id[:dash], id) == 0 {
		return 0
	}
	return dash
}

// encode returns the tally as an index body for a segment of records
// records, or nil when it counted another number.
func (t *segTally) encode(records uint64) []byte {
	total := t.none
	for _, inst := range t.insts {
		total += int(inst.seg)
	}
	if uint64(total) != records {
		return nil
	}
	type entry struct {
		group string // the process ID, or the literal ID
		seq   uint64 // 0 for a literal ID
		n     int
	}
	entries := make([]entry, len(t.insts))
	for i, inst := range t.insts {
		entries[i] = entry{inst.id, 0, int(inst.seg)}
		if dash := splitID(inst.id); dash > 0 {
			entries[i] = entry{inst.id[:dash], instanceSeq(inst.id[:dash], inst.id), int(inst.seg)}
		}
	}
	// Numbered first, by process and number; then literal IDs.
	slices.SortFunc(entries, func(a, b entry) int {
		if (a.seq == 0) != (b.seq == 0) {
			if a.seq == 0 {
				return 1
			}
			return -1
		}
		return cmp.Or(strings.Compare(a.group, b.group), cmp.Compare(a.seq, b.seq))
	})
	literal := slices.IndexFunc(entries, func(e entry) bool { return e.seq == 0 })
	if literal < 0 {
		literal = len(entries)
	}
	body := binary.AppendUvarint(nil, uint64(t.none))
	var groups []int // the first entry of each group
	for i := range literal {
		if i == 0 || entries[i].group != entries[i-1].group {
			groups = append(groups, i)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(groups)))
	for g, first := range groups {
		next := literal
		if g+1 < len(groups) {
			next = groups[g+1]
		}
		body = binrec.AppendString(body, entries[first].group)
		body = binary.AppendUvarint(body, uint64(next-first))
		prev := uint64(0)
		for _, e := range entries[first:next] {
			body = binary.AppendUvarint(body, e.seq-prev)
			body = binary.AppendUvarint(body, uint64(e.n))
			prev = e.seq
		}
	}
	body = binary.AppendUvarint(body, uint64(len(entries)-literal))
	for _, e := range entries[literal:] {
		body = binrec.AppendString(body, e.group)
		body = binary.AppendUvarint(body, uint64(e.n))
	}
	return body
}

// indexVisitor takes the entries of an index body as decodeIndex reads
// them: each group's process, then its numbered entries; then the
// literal IDs. The slices are valid for the call only.
type indexVisitor interface {
	process(name []byte)
	numbered(seq uint64, n int)
	literal(id []byte, n int)
}

// decodeIndex reads an index body for a segment of records records,
// handing its entries to v when v is set. It declines a body encode
// cannot have written for such a segment: a truncated or overflowing
// varint, a count or a delta of 0, groups or literal IDs out of order
// (so no ID appears twice), an empty process or literal ID, a literal ID
// encode numbers, bytes past the end, or counts that do not add up to
// records.
func decodeIndex(body []byte, records uint64, v indexVisitor) error {
	none, i := binary.Uvarint(body)
	if i <= 0 || none > records {
		return errBadIndex
	}
	left := records - none // records the entries still have to count
	// count reads an entry's count at body[i:].
	count := func(i int) (n uint64, next int) {
		n, k := binary.Uvarint(body[i:])
		if k <= 0 || n == 0 || n > left {
			return 0, -1
		}
		left -= n
		return n, i + k
	}
	groups, k := binary.Uvarint(body[i:])
	if k <= 0 {
		return errBadIndex
	}
	i += k
	var ok bool
	var prev []byte // the group or literal ID before
	for g := uint64(0); g < groups; g++ {
		var process []byte
		if process, i, ok = binrec.Field(body, i); !ok || len(process) == 0 || g > 0 && bytes.Compare(prev, process) >= 0 {
			return errBadIndex
		}
		prev = process
		seqs, k := binary.Uvarint(body[i:])
		if k <= 0 || seqs == 0 {
			return errBadIndex
		}
		i += k
		if v != nil {
			v.process(process)
		}
		for seq := uint64(0); seqs > 0; seqs-- {
			delta, k := binary.Uvarint(body[i:])
			if k <= 0 || delta == 0 || seq+delta < seq {
				return errBadIndex
			}
			seq += delta
			var n uint64
			if n, i = count(i + k); i < 0 {
				return errBadIndex
			}
			if v != nil {
				v.numbered(seq, int(n))
			}
		}
	}
	literals, k := binary.Uvarint(body[i:])
	if k <= 0 {
		return errBadIndex
	}
	i += k
	for l := uint64(0); l < literals; l++ {
		var id []byte
		if id, i, ok = binrec.Field(body, i); !ok || len(id) == 0 || l > 0 && bytes.Compare(prev, id) >= 0 || splitID(string(id)) > 0 {
			return errBadIndex
		}
		prev = id
		var n uint64
		if n, i = count(i); i < 0 {
			return errBadIndex
		}
		if v != nil {
			v.literal(id, int(n))
		}
	}
	if i != len(body) || left != 0 {
		return errBadIndex
	}
	return nil
}

// indexSums sums the counts of index bodies by instance (an
// indexVisitor). A numbered instance's counts are summed in an array
// indexed by its number, per process: numbers are dense, the engine
// counts them up. The array grows to take a number outside it; a process
// whose numbers lie too far apart for that keeps a list to sort and
// merge instead.
type indexSums struct {
	procs    []*procSums
	cur      *procSums
	literals map[string]int
}

// procSums is one process's sums.
type procSums struct {
	name   string
	first  uint64 // the number of sums[0]
	sums   []int
	sparse []seqCount // once the numbers are sparse
}

type seqCount struct {
	seq uint64
	n   int
}

func (x *indexSums) process(name []byte) {
	for _, p := range x.procs {
		if p.name == string(name) {
			x.cur = p
			return
		}
	}
	x.cur = &procSums{name: string(name)}
	x.procs = append(x.procs, x.cur)
}

func (x *indexSums) numbered(seq uint64, n int) {
	p := x.cur
	switch {
	case p.sparse != nil:
		p.sparse = append(p.sparse, seqCount{seq, n})
		return
	case p.sums == nil:
		p.first, p.sums = seq, make([]int, 0, 4096)
	case seq < p.first || seq-p.first >= uint64(cap(p.sums)):
		lo, hi := min(seq, p.first), max(seq+1, p.first+uint64(len(p.sums)))
		if span := hi - lo; span > 4*uint64(len(p.sums))+4096 {
			p.toSparse()
			p.sparse = append(p.sparse, seqCount{seq, n})
			return
		}
		grown := make([]int, hi-lo, max(2*(hi-lo), 4096))
		copy(grown[p.first-lo:], p.sums)
		p.first, p.sums = lo, grown
	}
	if k := seq - p.first; k >= uint64(len(p.sums)) {
		p.sums = p.sums[:k+1]
	}
	p.sums[seq-p.first] += n
}

// toSparse moves the array's sums into the list.
func (p *procSums) toSparse() {
	p.sparse = []seqCount{}
	for k, n := range p.sums {
		if n > 0 {
			p.sparse = append(p.sparse, seqCount{p.first + uint64(k), n})
		}
	}
	p.sums = nil
}

func (x *indexSums) literal(id []byte, n int) { x.literals[string(id)] += n }

// merge sums each sparse list by number, and returns how many instances
// the sums hold and a bound on the bytes of their IDs.
func (x *indexSums) merge() (n, size int) {
	for _, p := range x.procs {
		slices.SortFunc(p.sparse, func(a, b seqCount) int { return cmp.Compare(a.seq, b.seq) })
		merged := p.sparse[:0]
		for _, c := range p.sparse {
			if last := len(merged) - 1; last >= 0 && merged[last].seq == c.seq {
				merged[last].n += c.n
			} else {
				merged = append(merged, c)
			}
		}
		p.sparse = merged
		k := len(merged)
		for _, sum := range p.sums {
			if sum > 0 {
				k++
			}
		}
		n, size = n+k, size+k*(len(p.name)+21)
	}
	for lit := range x.literals {
		n, size = n+1, size+len(lit)
	}
	return n, size
}

// each calls fn with each instance's ID bytes, valid for the call only,
// and its summed count, once merge has run.
func (x *indexSums) each(fn func(id []byte, n int)) {
	var id []byte
	for _, p := range x.procs {
		id = append(append(id[:0], p.name...), '-')
		prefix := len(id)
		for k, n := range p.sums {
			if n > 0 {
				id = strconv.AppendUint(id[:prefix], p.first+uint64(k), 10)
				fn(id, n)
			}
		}
		for _, c := range p.sparse {
			id = strconv.AppendUint(id[:prefix], c.seq, 10)
			fn(id, c.n)
		}
	}
	for lit, n := range x.literals {
		fn([]byte(lit), n)
	}
}

// addIndexes adds the counts of the segments with an index body into a
// stripe that holds no instance yet, and clears Index on each whose body
// does not decode. The bodies are summed before any instance is entered,
// so an instance costs one map assignment however many segments name it,
// and the instances share one slab and one string of their IDs.
func (st *stripe) addIndexes(segs []storage.Segment) {
	sums := indexSums{literals: map[string]int{}}
	for i, s := range segs {
		if s.Index == nil {
			continue
		}
		if err := decodeIndex(s.Index, s.End-s.Base, nil); err != nil {
			segs[i].Index = nil
			continue
		}
		decodeIndex(s.Index, s.End-s.Base, &sums)
		st.count += int(s.End - s.Base)
	}
	n, size := sums.merge()
	if n == 0 {
		return
	}
	st.insts = make(map[string]*instance, n)
	slab := make([]instance, n)
	names := make([]byte, 0, size)
	ends := make([]int, 0, n) // the end of each instance's ID in names
	sums.each(func(id []byte, count int) {
		names = append(names, id...)
		slab[len(ends)].count = int32(count)
		ends = append(ends, len(names))
	})
	all, from := string(names), 0
	for k, end := range ends {
		inst := &slab[k]
		inst.id, from = all[from:end], end
		st.insts[inst.id] = inst
	}
}
