package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
)

// A segment index file, wal-<base>.idx, sits beside a sealed segment of
// a journal whose reader keeps one (IndexSegments). Its body is the
// reader's own: this package frames it and ties it to its segment, and
// reads nothing in it.
//
//	[4B magic "BIX5"]
//	then one frame (frame.go), its CRC seeded 0, whose payload is
//	[uvarint base][uvarint records][uvarint segment bytes]
//	[uvarint marks][uvarint offset delta per mark][body]
//
// The marks are the byte offsets of every markStride-th record of the
// segment (record base+markStride first), each as its distance from the
// one before (from 0 for the first): a replay that begins inside the
// segment seeks to the mark nearest below its first record.
//
// An index file is valid only for the segment it was written for: its
// base, its record count (the next segment's base minus its own) and its
// byte length must all match. Anything else, a missing, damaged or stale
// file alike, reads as no index, and the reader scans the segment.
// Correctness never depends on an index file, only speed: a mark that
// does not begin the record it names fails its frame check there, and
// Replay reads the segment from its start instead.

// markStride is how many records apart a segment's marks lie: a seek
// lands at most this many records before the one it looks for.
const markStride = 4096

var indexMagic = [frameMagicLen]byte{'B', 'I', 'X', '5'}

// Segment is one segment of a file journal: the records Base to End-1.
type Segment struct {
	Base, End uint64
	// Sealed is set on every segment but the last, which appends extend.
	Sealed bool
	// Index is the body of the sealed segment's valid index file, nil
	// when it has none or one that is damaged or stale.
	Index []byte
}

func indexName(base uint64) string { return strings.TrimSuffix(segmentName(base), ".log") + ".idx" }

// IndexSegments has index called as each segment seals, with the
// segment's records [base, end), and writes what it returns as that
// segment's index file; nil writes none. index runs on the appending
// goroutine, inside the Append that seals the segment, with the
// journal's lock held: it must not call the journal. A failed write
// leaves the segment without an index file, which its next reader scans.
func (j *FileJournal) IndexSegments(index func(base, end uint64) []byte) {
	j.mu.Lock()
	j.index = index
	j.mu.Unlock()
}

// Segments lists the journal's segments, oldest first, each sealed one
// with the body of its index file when that is valid.
func (j *FileJournal) Segments() ([]Segment, error) {
	j.mu.Lock()
	bases := append([]uint64(nil), j.segments...)
	next := j.nextIndex
	j.mu.Unlock()
	entries, err := j.opts.FS.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if info, err := e.Info(); err == nil {
				sizes[e.Name()] = info.Size()
			}
		}
	}
	out := make([]Segment, len(bases))
	for i, base := range bases {
		out[i] = Segment{Base: base, End: next}
		if i+1 == len(bases) {
			break
		}
		out[i].End, out[i].Sealed = bases[i+1], true
		size, ok := sizes[segmentName(base)]
		if _, has := sizes[indexName(base)]; !ok || !has {
			continue
		}
		data, err := j.opts.FS.ReadFile(filepath.Join(j.dir, indexName(base)))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		var marks []int64
		if out[i].Index, marks = readIndex(data, out[i], size); out[i].Index != nil {
			j.mu.Lock()
			j.marks[base] = marks
			j.mu.Unlock()
		}
	}
	return out, nil
}

// WriteSegmentIndex writes body as the index file of the sealed segment
// at base, atomically.
func (j *FileJournal) WriteSegmentIndex(base uint64, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := 0
	for i < len(j.segments) && j.segments[i] != base {
		i++
	}
	if i+1 >= len(j.segments) {
		return errors.New("storage: index of a segment that is not sealed")
	}
	seg := Segment{Base: base, End: j.segments[i+1]}
	marks, ok := j.marks[base]
	if !ok {
		var err error
		if _, _, err = j.scanFrom(base, base, frameMagicLen, nil, &marks); err != nil {
			return err
		}
	}
	f, err := j.opts.FS.Open(filepath.Join(j.dir, segmentName(base)))
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	f.Close()
	if err != nil {
		return err
	}
	return j.writeIndexLocked(seg, size, marks, body)
}

// writeIndexLocked writes the index file of seg, size bytes long.
func (j *FileJournal) writeIndexLocked(seg Segment, size int64, marks []int64, body []byte) error {
	head := binary.AppendUvarint(nil, seg.Base)
	head = binary.AppendUvarint(head, seg.End-seg.Base)
	head = binary.AppendUvarint(head, uint64(size))
	head = binary.AppendUvarint(head, uint64(len(marks)))
	prev := int64(0)
	for _, m := range marks {
		head = binary.AppendUvarint(head, uint64(m-prev))
		prev = m
	}
	out := appendFrame(append([]byte(nil), indexMagic[:]...), 0, append(head, body...))
	return replaceFile(j.opts.FS, filepath.Join(j.dir, indexName(seg.Base)), out)
}

// readIndex returns the body and the marks of the index file data when
// it is valid for seg, a segment of size bytes, and nil otherwise.
func readIndex(data []byte, seg Segment, size int64) ([]byte, []int64) {
	if len(data) < frameMagicLen || [frameMagicLen]byte(data) != indexMagic {
		return nil, nil
	}
	rest := data[frameMagicLen:]
	length, k := binary.Uvarint(rest)
	if k <= 0 || len(rest)-k < 4 || uint64(len(rest)-k-4) != length {
		return nil, nil
	}
	p := rest[k+4:]
	if crc32.Update(0, castagnoli, p) != binary.LittleEndian.Uint32(rest[k:]) {
		return nil, nil
	}
	records := seg.End - seg.Base
	if records == 0 {
		return nil, nil
	}
	for _, want := range []uint64{seg.Base, records, uint64(size), (records - 1) / markStride} {
		v, k := binary.Uvarint(p)
		if k <= 0 || v != want {
			return nil, nil
		}
		p = p[k:]
	}
	marks := make([]int64, (records-1)/markStride)
	at := uint64(0)
	for m := range marks {
		// Each mark lies past the one before, inside the segment.
		d, k := binary.Uvarint(p)
		if k <= 0 || d == 0 || d >= uint64(size)-at {
			return nil, nil
		}
		at += d
		marks[m], p = int64(at), p[k:]
	}
	return bytes.Clone(p), marks
}
