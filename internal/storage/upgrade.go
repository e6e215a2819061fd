package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"bpms/internal/fault"
)

// UpgradeStats counts the files an upgrade rewrote and the records it
// transcoded.
type UpgradeStats struct{ Files, Records int }

// Add accumulates o into s.
func (s *UpgradeStats) Add(o UpgradeStats) {
	s.Files += o.Files
	s.Records += o.Records
}

// Transcoder returns a record in the current format, or nil when it is
// one already: such a record is kept byte for byte.
type Transcoder func(payload []byte) ([]byte, error)

// Upgrade rewrites every WAL segment and intact snapshot in dir that is
// in an older framing, or that holds a record transcode changes (a nil
// transcode changes none): segments and snapshots framed as data format
// 4 and older wrote them (the one reader of that framing is here), and
// snapshots in the blob format engines wrote before streaming
// snapshots, [8B index][4B CRC-32C][image], whose image split turns into
// records. A rewritten file keeps its name (a segment, its records'
// indexes) and replaces the old one atomically, so a crash leaves one or
// the other. A damaged snapshot is left as it is (LatestSnapshot skips
// it either way); bytes past a segment's last valid record, which no
// reader reaches, are dropped.
func Upgrade(fsys fault.FS, dir string, transcode Transcoder, split func(image []byte, emit func([]byte)) error) (UpgradeStats, error) {
	var st UpgradeStats
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	} else if err != nil {
		return st, err
	}
	if transcode == nil {
		transcode = func([]byte) ([]byte, error) { return nil, nil }
	}
	var segments []uint64 // ReadDir sorts by name, so by base
	for _, e := range entries {
		if base, ok := parseSegmentName(e.Name()); ok {
			segments = append(segments, base)
		}
	}
	for _, e := range entries {
		var out []byte
		n, path := 0, filepath.Join(dir, e.Name())
		if base, ok := parseSegmentName(e.Name()); ok {
			out, n, err = upgradeSegment(fsys, dir, segments, base, transcode)
		} else if _, ok := parseSnapshotName(e.Name()); ok {
			out, n, err = upgradeSnapshot(fsys, path, transcode, split)
		}
		if err == nil && out != nil {
			err = replaceFile(fsys, path, out)
			st.Add(UpgradeStats{Files: 1, Records: n})
		}
		if err != nil {
			return st, fmt.Errorf("storage: upgrade %s: %w", path, err)
		}
	}
	return st, nil
}

// upgradeSegment returns the current form of the WAL segment at base,
// one of segments, and how many records it transcoded, or nil when it is
// current: in this framing with no record to transcode, or shorter than
// the magic, which both framings read as holding no record. A sealed
// segment whose records do not run up to the next base is ErrCorrupt,
// as Replay finds it.
func upgradeSegment(fsys fault.FS, dir string, segments []uint64, base uint64, transcode Transcoder) (out []byte, n int, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, segmentName(base)))
	if err != nil || len(data) < frameMagicLen {
		return nil, 0, err
	}
	j := &FileJournal{dir: dir, opts: Options{FS: fsys}}
	i, _ := slices.BinarySearch(segments, base)
	out = append(out, segmentMagic[:]...)
	keep := func(index uint64, p []byte) error {
		rec, err := transcode(p)
		if err != nil {
			return fmt.Errorf("record %d: %w", index, err)
		}
		if rec != nil {
			n++
			p = rec
		}
		if err := checkPayload(p); err != nil {
			return fmt.Errorf("record %d: %w", index, err)
		}
		out = appendFrame(out, indexSeed(index), p)
		return nil
	}
	if [frameMagicLen]byte(data) != segmentMagic {
		next, err := scanV4Segment(data, base, keep)
		if err == nil {
			err = j.checkSealed(segments, i, next)
		}
		return out, n, err
	}
	next, _, err := j.scanSegment(base, keep)
	if err == nil {
		err = j.checkSealed(segments, i, next)
	}
	if err != nil || n == 0 {
		return nil, 0, err
	}
	return out, n, nil
}

// upgradeSnapshot returns the current form of one snapshot file and how
// many records it transcoded, or nil when the file is current or
// damaged.
func upgradeSnapshot(fsys fault.FS, path string, transcode Transcoder, split func([]byte, func([]byte)) error) (out []byte, n int, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil || len(data) < snapshotHeader {
		return nil, 0, err
	}
	out = append(out, snapshotMagic[:]...)
	emit := func(rec []byte) error {
		if err := checkPayload(rec); err != nil {
			return err
		}
		out = appendFrame(out, 0, rec)
		return nil
	}
	keep := func(p []byte) error {
		rec, err := transcode(p)
		if err != nil {
			return err
		}
		if rec != nil {
			n++
			p = rec
		}
		return emit(p)
	}
	var intact bool
	switch magic := [frameMagicLen]byte(data); magic {
	case snapshotMagic:
		out = append(out, data[frameMagicLen:snapshotHeader]...)
		intact = scanSnapshotRecords(bytes.NewReader(data[snapshotHeader:]), func(p []byte) error {
			err = keep(p)
			return err
		})
		if n == 0 {
			return nil, 0, err
		}
	case snapshotMagicV4:
		out = append(out, data[frameMagicLen:snapshotHeader]...)
		intact, err = scanV4Snapshot(data[snapshotHeader:], keep)
	default:
		if crc32.Checksum(data[12:], castagnoli) != binary.LittleEndian.Uint32(data[8:12]) {
			return nil, 0, nil
		}
		out = append(out, data[0:8]...) // the blob's index
		var emitErr error
		err = split(data[12:], func(rec []byte) {
			if emitErr == nil {
				emitErr = emit(rec)
				n++
			}
		})
		intact, err = true, cmp.Or(err, emitErr)
	}
	if err != nil || !intact {
		return nil, 0, err
	}
	return out, n, nil
}

// The framing data format 4 and older wrote, read here only: a segment
// of records [4B length][4B CRC-32C over index and payload][8B index]
// [payload] from its first byte, a snapshot of records [4B length][4B
// CRC-32C over payload][payload] after the magic "BSN2" and the index.
var snapshotMagicV4 = [frameMagicLen]byte{'B', 'S', 'N', '2'}

// scanV4Segment calls fn for each valid record of a segment in the
// format 4 framing, up to the first torn, corrupt or out-of-sequence
// one, and returns the index after the last valid record.
func scanV4Segment(data []byte, base uint64, fn func(uint64, []byte) error) (uint64, error) {
	next := base
	for ; len(data) >= 16; next++ {
		length := binary.LittleEndian.Uint32(data[0:4])
		if length > 64<<20 || uint64(len(data)-16) < uint64(length) {
			break
		}
		p := data[16 : 16+length]
		crc := crc32.Update(crc32.Checksum(data[8:16], castagnoli), castagnoli, p)
		if crc != binary.LittleEndian.Uint32(data[4:8]) || binary.LittleEndian.Uint64(data[8:16]) != next {
			break
		}
		if err := fn(next, p); err != nil {
			return next, err
		}
		data = data[16+length:]
	}
	return next, nil
}

// scanV4Snapshot calls fn for each record of a snapshot's records in
// the format 4 framing and reports whether they end cleanly.
func scanV4Snapshot(data []byte, fn func([]byte) error) (bool, error) {
	for len(data) > 0 {
		if len(data) < 8 {
			return false, nil
		}
		length := binary.LittleEndian.Uint32(data[0:4])
		if length > 256<<20 || uint64(len(data)-8) < uint64(length) {
			return false, nil
		}
		p := data[8 : 8+length]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
			return false, nil
		}
		if err := fn(p); err != nil {
			return true, err
		}
		data = data[8+length:]
	}
	return true, nil
}

// replaceFile atomically replaces the file at path with data: it
// writes a temp file beside it, path + ".tmp", fsyncs it, renames it
// over path and fsyncs the dir.
func replaceFile(fsys fault.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, filepath.Dir(path))
}
