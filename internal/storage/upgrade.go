package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

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

// Upgrade rewrites every WAL segment and intact snapshot in dir that
// holds a record transcode changes, and every snapshot in the blob
// format engines wrote before streaming snapshots, [8B index][4B
// CRC-32C][image], whose image split turns into records. A rewritten
// file keeps its name (a segment, its records' indexes) and replaces
// the old one atomically, so a crash leaves one or the other. A damaged
// snapshot is left as it is (LatestSnapshot skips it either way); bytes
// past a segment's last valid record, which no reader reaches, are
// dropped.
func Upgrade(fsys fault.FS, dir string, transcode Transcoder, split func(image []byte, emit func([]byte)) error) (UpgradeStats, error) {
	var st UpgradeStats
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	} else if err != nil {
		return st, err
	}
	for _, e := range entries {
		var out []byte
		n, path := 0, filepath.Join(dir, e.Name())
		if base, ok := parseSegmentName(e.Name()); ok {
			out, n, err = upgradeSegment(fsys, dir, base, transcode)
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

// upgradeSegment returns the current form of one WAL segment and how
// many records it transcoded, or nil when there is none to transcode.
func upgradeSegment(fsys fault.FS, dir string, base uint64, transcode Transcoder) (out []byte, n int, err error) {
	j := &FileJournal{dir: dir, opts: Options{FS: fsys}}
	_, _, err = j.scanSegment(base, func(index uint64, p []byte) error {
		rec, err := transcode(p)
		if err != nil {
			return fmt.Errorf("record %d: %w", index, err)
		}
		if rec != nil {
			n++
		} else {
			rec = p
		}
		var hdr [recordHeader]byte
		putRecordHead(&hdr, index, rec)
		out = append(append(out, hdr[:]...), rec...)
		return nil
	})
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
	if err != nil || len(data) < 12 {
		return nil, 0, err
	}
	emit := func(rec []byte) {
		hdr := snapshotRecordHead(rec)
		out = append(append(out, hdr[:]...), rec...)
	}
	if [4]byte(data[0:4]) != snapshotMagic {
		if crc32.Checksum(data[12:], castagnoli) != binary.LittleEndian.Uint32(data[8:12]) {
			return nil, 0, nil
		}
		out = append(append(out, snapshotMagic[:]...), data[0:8]...) // the blob's index
		err = split(data[12:], func(rec []byte) { emit(rec); n++ })
		return out, n, err
	}
	out = append(out, data[:12]...)
	intact := scanSnapshotRecords(bytes.NewReader(data[12:]), func(p []byte) error {
		rec, terr := transcode(p)
		if rec != nil {
			n++
			p = rec
		}
		emit(p)
		err = terr
		return err
	})
	if err != nil || !intact || n == 0 {
		return nil, 0, err
	}
	return out, n, nil
}

// replaceFile atomically replaces the file at path with data: it
// writes a temp file beside it, fsyncs it, renames it over path and
// fsyncs the dir.
func replaceFile(fsys fault.FS, path string, data []byte) error {
	tmp := path + ".upgrade"
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
