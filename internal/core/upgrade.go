package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bpms/internal/engine"
	"bpms/internal/fault"
	"bpms/internal/history"
	"bpms/internal/storage"
)

// dataFormat is the data dir format this build reads and writes, kept in
// the dir's FORMAT file: WAL segments and snapshots of 5-byte record
// frames ([uvarint length][CRC-32C][payload], each file behind a magic),
// v2 history records, which may hold an instance ID as its sequence
// number, binary instance state records whose tokens and joins are
// binary too, and streaming snapshots. Format 4 framed each WAL record
// as [4B length][4B CRC][8B index] and each snapshot record as [4B
// length][4B CRC]; format 3 besides held a live case's tokens and joins
// as a JSON tail; format 2 besides held no numbered IDs, and its history
// records read as they are. The number keeps a build that does not read
// a format from opening a dir that holds it.
const dataFormat, formatFile = 5, "FORMAT"

// UpgradeReport is what Open's one-shot data dir upgrade rewrote, and
// how long it took (zero when FORMAT was current).
type UpgradeReport struct {
	storage.UpgradeStats
	Took time.Duration
}

// upgradeDataDir brings a data dir to dataFormat before any journal
// opens. A current FORMAT skips it; a newer one is refused. Otherwise
// every WAL segment and snapshot, state and history alike, is rewritten
// where it is in the format 4 framing or holds a record in an older
// format: a JSON tail (formats 2 and 3) or a v1 history record (no
// FORMAT, an empty or garbled one). Current files pass through, so a
// crash only means the next open reruns it. FORMAT is written last,
// without an fsync of its own: losing it costs one more scan that
// rewrites nothing.
func upgradeDataDir(fsys fault.FS, dataDir string, shards int, histDirs []string) (UpgradeReport, error) {
	began := time.Now()
	path := filepath.Join(dataDir, formatFile)
	format := 0 // none, empty or garbled
	if data, err := fsys.ReadFile(path); err == nil {
		if v, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil {
			format = v
		}
	}
	switch {
	case format == dataFormat:
		return UpgradeReport{}, nil
	case format > dataFormat:
		return UpgradeReport{}, fmt.Errorf("core: data dir %s has format %d, newer than the format %d this build reads", dataDir, format, dataFormat)
	}
	var up UpgradeReport
	for i := 0; i < shards; i++ {
		for _, sub := range []string{"state", "snapshots"} {
			st, err := engine.Upgrade(fsys, filepath.Join(shardDir(dataDir, shards, i), sub))
			if err != nil {
				return UpgradeReport{}, err
			}
			up.Add(st)
		}
	}
	for _, dir := range histDirs {
		st, err := history.Upgrade(fsys, dir)
		if err != nil {
			return UpgradeReport{}, err
		}
		up.Add(st)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = fmt.Fprintf(f, "%d\n", dataFormat)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return UpgradeReport{}, fmt.Errorf("core: write %s: %w", path, err)
	}
	up.Took = time.Since(began)
	return up, nil
}
