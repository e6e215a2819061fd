package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bpms/internal/fault"
	"bpms/internal/history"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/timer"
)

// The committed fixtures of data dirs written before the current
// formats: a JSON-era state dir with the answers its engine gave, and a
// v1 history journal.
const (
	jsonStateFixture = "../engine/testdata/json-state"
	v1JournalFixture = "../history/testdata/v1-journal"
)

// legacyDataDir assembles a single-shard data dir from the fixtures,
// plus an older snapshot in the single-blob format that holds one JSON
// state (recovery reads the newer snapshot; the upgrade rewrites both).
func legacyDataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(jsonStateFixture)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "answers.txt")); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(filepath.Join(dir, "history"), os.DirFS(v1JournalFixture)); err != nil {
		t.Fatal(err)
	}
	image := []byte(`{"definitions":[],"instances":[{"id":"flow-1","processId":"flow","status":1,"vars":{"n":{"t":"i","v":"1"}},` +
		`"startedAt":"2026-02-03T04:05:06+05:30","endedAt":"2026-02-03T04:05:06+05:30"}]}`)
	blob := make([]byte, 12, 12+len(image))
	binary.LittleEndian.PutUint64(blob[0:8], 3)
	binary.LittleEndian.PutUint32(blob[8:12], crc32.Checksum(image, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "snapshots", fmt.Sprintf("snap-%020d.snap", 3)), append(blob, image...), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openLegacy opens a data dir written from the fixtures, over fsys.
func openLegacy(t *testing.T, dir string, fsys fault.FS) (*BPMS, error) {
	t.Helper()
	return Open(Options{
		DataDir: dir,
		FS:      fsys,
		Clock:   timer.NewVirtualClock(time.Date(2026, 2, 3, 4, 5, 6, 7000, time.FixedZone("", 5*3600+30*60))),
		Users:   []resource.User{{ID: "carol", Roles: []string{"clerk"}}},
	})
}

// renderCases spells out each case as the engine test that wrote the
// fixture's answers.txt does.
func renderCases(t *testing.T, b *BPMS) string {
	t.Helper()
	var out strings.Builder
	for _, id := range b.Engine.Instances() {
		v, err := b.Engine.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%q %s %s\n", v.ID, v.ProcessID, v.Status)
		for _, at := range []time.Time{v.StartedAt, v.EndedAt} {
			fmt.Fprintf(&out, "  %s %q\n", at.Format(time.RFC3339Nano), at.Location())
		}
		keys := make([]string, 0, len(v.Vars))
		for k := range v.Vars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&out, "  %q %s %s\n", k, v.Vars[k].Kind(), v.Vars[k])
		}
		for _, tok := range v.ActiveTokens {
			fmt.Fprintf(&out, "  token %d %s %s\n", tok.ID, tok.Element, tok.Wait)
		}
	}
	return out.String()
}

// renderEvents spells out every audit event, with its time's Location.
func renderEvents(t *testing.T, events []*history.Event) string {
	t.Helper()
	var out strings.Builder
	for _, e := range events {
		data, err := json.Marshal(e.Data)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%d %q %s %q %q %q %q %q %q %q %s\n", e.Index, e.Type, e.Time.Format(time.RFC3339Nano),
			e.Time.Location(), e.ProcessID, e.InstanceID, e.ElementID, e.Element, e.TaskID, e.Actor, data)
	}
	return out.String()
}

// v1Records is the number of records in the v1 journal fixture.
const v1Records = 22

// answers is what a system opened on a fixture dir answers: every case
// and every audit event the fixture holds (each open appends the events
// of the work items recovery re-issues).
func answers(t *testing.T, b *BPMS) string {
	t.Helper()
	var events []*history.Event
	err := b.History.All(func(e *history.Event) error {
		if e.Index <= v1Records {
			events = append(events, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return renderCases(t, b) + renderEvents(t, events)
}

// fixtureAnswers is what the fixtures answered before the upgrade: the
// engine's answers.txt, and each v1 record as encoding/json reads it,
// with an empty data object as none.
func fixtureAnswers(t *testing.T) string {
	t.Helper()
	cases, err := os.ReadFile(filepath.Join(jsonStateFixture, "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(v1JournalFixture)); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Upgrade(fault.OS, dir, nil, nil); err != nil { // reframe, records kept
		t.Fatal(err)
	}
	j, err := storage.OpenFileJournal(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var events []*history.Event
	err = j.Replay(1, func(index uint64, p []byte) error {
		e := &history.Event{}
		if err := json.Unmarshal(p, e); err != nil {
			return err
		}
		e.Index = index
		if len(e.Data) == 0 {
			e.Data = nil
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(cases) + renderEvents(t, events)
}

// legacyRecords counts what remains of the older formats in a data dir:
// segments and snapshots in the format 4 framing (one each), state
// records neither binary nor a deployment, history records not v2, and
// snapshots without the streaming magic.
func legacyRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	replay := func(sub string, current func(p []byte) bool) {
		segs, err := filepath.Glob(filepath.Join(dir, sub, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		oldFramed := 0
		for _, name := range segs {
			if data, err := os.ReadFile(name); err != nil || !bytes.HasPrefix(data, []byte("BWL5")) {
				oldFramed++
			}
		}
		if n += oldFramed; oldFramed > 0 {
			return
		}
		j, err := storage.OpenFileJournal(filepath.Join(dir, sub), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		err = j.Replay(1, func(_ uint64, p []byte) error {
			if !current(p) {
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	state := func(p []byte) bool { return p[0] == 0x02 || bytes.HasPrefix(p, []byte(`{"kind":"deploy",`)) }
	replay("state", state)
	replay("history", func(p []byte) bool { return p[0] == 0x02 })
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshots", "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range snaps {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("BSN5")) {
			n++
			continue
		}
		for rest := data[12:]; len(rest) > 0; {
			size, k := binary.Uvarint(rest)
			if !state(rest[k+4 : k+4+int(size)]) {
				n++
			}
			rest = rest[k+4+int(size):]
		}
	}
	return n
}

// TestUpgradeAtOpen: Open rewrites a data dir of the committed
// fixtures, JSON-era states, a blob snapshot and a v1 history journal,
// into the current formats and answers exactly what the fixtures
// answered; FORMAT records it, and the next open rewrites nothing.
func TestUpgradeAtOpen(t *testing.T) {
	dir := legacyDataDir(t)
	if n := legacyRecords(t, dir); n == 0 {
		t.Fatal("the fixture dir holds no legacy record")
	}
	b, err := openLegacy(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u := b.Upgrade; u.Files != 4 || u.Records == 0 || u.Took <= 0 {
		t.Errorf("upgrade report %+v, want 4 files rewritten: the WAL segment, two snapshots, the history segment", u)
	}
	want := fixtureAnswers(t)
	if got := answers(t, b); got != want {
		t.Errorf("upgraded dir answers\n%s\nthe fixtures answered\n%s", got, want)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := legacyRecords(t, dir); n != 0 {
		t.Errorf("%d legacy records remain after the upgrade", n)
	}
	if data, err := os.ReadFile(filepath.Join(dir, formatFile)); err != nil || string(data) != formatLine {
		t.Errorf("FORMAT = %q, %v", data, err)
	}
	b, err = openLegacy(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Upgrade != (UpgradeReport{}) {
		t.Errorf("second open upgraded %+v", b.Upgrade)
	}
	if got := answers(t, b); got != want {
		t.Errorf("second open answers\n%s\nwant\n%s", got, want)
	}
}

// formatLine is what FORMAT holds once a dir is current.
var formatLine = fmt.Sprintf("%d\n", dataFormat)

// TestUpgradeFormatFile: a newer format is refused with an error naming
// it; a FORMAT that is lost, empty or garbled, or names format 2, 3 or
// 4, costs one scan that rewrites nothing in a dir of current records
// and framing, and is then written again.
func TestUpgradeFormatFile(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, formatFile)
	for _, content := range []string{"", "x\n", "-", "2", "2\n", "3", "3\n", "4", "4\n", "5"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := Open(Options{DataDir: dir})
		if err != nil {
			t.Fatalf("FORMAT %q: %v", content, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if b.Upgrade.Files != 0 {
			t.Errorf("FORMAT %q: upgrade rewrote %d files", content, b.Upgrade.Files)
		}
		if data, _ := os.ReadFile(path); content != "5" && string(data) != formatLine {
			t.Errorf("FORMAT %q rewritten as %q", content, data)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if b, err = Open(Options{DataDir: dir}); err != nil {
		t.Fatalf("lost FORMAT: %v", err)
	}
	b.Close()
	if err := os.WriteFile(path, []byte(fmt.Sprintf("%d\n", dataFormat+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format %d, newer", dataFormat+1)) {
		t.Errorf("newer format opened: %v", err)
	}
}

// format2Fixture is a data dir a format 2 build wrote: deployments,
// finished and parked cases, a snapshot and WAL records past it, and v2
// history records with every instance ID spelled out. answers.txt holds
// its cases and events as that build answered them, answers.xes its XES
// export with every event.
const (
	format2Fixture = "testdata/format2"
	format2Events  = 101
)

// historyPayloads returns the records of a data dir's history journal,
// read from a copy reframed as need be.
func historyPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	copied := t.TempDir()
	if err := os.CopyFS(copied, os.DirFS(filepath.Join(dir, "history"))); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Upgrade(fault.OS, copied, nil, nil); err != nil {
		t.Fatal(err)
	}
	j, err := storage.OpenFileJournal(copied, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var out [][]byte
	if err := j.Replay(1, func(_ uint64, p []byte) error { out = append(out, bytes.Clone(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFormat2DirOpens: a format 2 dir opens with every file reframed,
// its history records kept byte for byte and only the state records of
// parked cases, whose tokens were a JSON tail, rewritten, and answers
// what the build that wrote it answered. The same
// events written with numbered instance IDs export byte-identical XES.
// New cases then append numbered records beside the literal ones, and a
// reopen reads the mixed journal back as the live store answered it.
func TestFormat2DirOpens(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(format2Fixture)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantXES, err := os.ReadFile(filepath.Join(dir, "answers.xes"))
	if err != nil {
		t.Fatal(err)
	}
	literal := historyPayloads(t, dir)
	if len(literal) != format2Events {
		t.Fatalf("the fixture holds %d history records, want %d", len(literal), format2Events)
	}

	// The fixture's events, numbered: the XES export is the same bytes.
	numbered := storage.NewMemJournal()
	literalBytes, numberedBytes := 0, 0
	for _, p := range literal {
		literalBytes += len(p)
		e, err := history.DecodeEvent(p)
		if err == nil {
			p, err = history.AppendEncode(nil, e)
		}
		if err == nil {
			numberedBytes += len(p)
			_, err = numbered.Append(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if numberedBytes >= literalBytes {
		t.Errorf("numbered records take %d B, literal ones %d B", numberedBytes, literalBytes)
	}
	hs, err := history.NewStriped([]storage.Journal{numbered}, history.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var xes bytes.Buffer
	if err := history.StreamXES(&xes, hs, true); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	if !bytes.Equal(xes.Bytes(), wantXES) {
		t.Errorf("XES of the numbered records differs from the format 2 build's export")
	}

	clock := timer.NewVirtualClock(time.Date(2026, 5, 6, 8, 0, 0, 0, time.FixedZone("", 2*3600)))
	open := func() *BPMS {
		b, err := Open(Options{DataDir: dir, Clock: clock, Users: []resource.User{{ID: "carol", Roles: []string{"clerk"}}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := open()
	if b.Upgrade.Files != 3 || b.Upgrade.Records != 3 {
		t.Errorf("upgrade report %+v, want the WAL segment, the snapshot and the history segment rewritten, 3 records of parked cases", b.Upgrade)
	}
	if data, err := os.ReadFile(filepath.Join(dir, formatFile)); err != nil || string(data) != formatLine {
		t.Errorf("FORMAT = %q, %v", data, err)
	}
	var events []*history.Event
	err = b.History.All(func(e *history.Event) error {
		if e.Index <= format2Events {
			events = append(events, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCases(t, b) + renderEvents(t, events); got != string(want) {
		t.Errorf("the format 2 dir answers\n%s\nthe build that wrote it answered\n%s", got, want)
	}

	var added []string
	for i := 0; i < 2; i++ {
		v, err := b.Engine.StartInstance("bench-pipeline", map[string]any{"amount": 42 + i, "customer": "c-new", "region": "east"})
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, v.ID)
	}
	var live []*history.Event
	if err := b.History.All(func(e *history.Event) error { live = append(live, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The old records spell their IDs out; the new ones number them.
	mixed := historyPayloads(t, dir)
	for i, p := range mixed {
		old := i < format2Events
		for _, id := range added {
			if bytes.Contains(p, []byte(id)) {
				t.Errorf("record %d spells out %s", i+1, id)
			}
		}
		if old && !bytes.Equal(p, literal[i]) {
			t.Errorf("record %d changed", i+1)
		}
	}
	b = open()
	defer b.Close()
	if b.Upgrade != (UpgradeReport{}) {
		t.Errorf("second open upgraded %+v", b.Upgrade)
	}
	var reopened []*history.Event
	err = b.History.All(func(e *history.Event) error {
		if e.Index <= uint64(len(live)) {
			reopened = append(reopened, e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderEvents(t, reopened), renderEvents(t, live); got != want {
		t.Errorf("the reopened mixed journal reads back\n%s\nthe live store answered\n%s", got, want)
	}
	for _, id := range added {
		if n := len(b.History.EventsOf(id)); n != 16 {
			t.Errorf("history of %s = %d events, want 16", id, n)
		}
	}
}

// format3Fixture is a data dir a format 3 build wrote, whose live cases'
// tokens and joins are JSON tails: a token parked at every wait kind
// (user tasks with boundary timers fired and not, messages, a timer,
// event-gateway races, parallel and sequential multi-instance tasks, a
// sub-process scope, AND and OR joins with arrivals queued), finished
// cases, a snapshot and WAL records past it. answers.txt holds its cases
// and events as that build answered them, answers-after.txt its cases
// and every event after format3Drive moved them on.
const (
	format3Fixture = "testdata/format3"
	format3Events  = 159
)

// format3Drive moves every parked case of the format 3 fixture on:
// messages to a payment, a race and an approval, time past the race
// timers, every offered work item done, then time past the cooldown and
// the approvals' deadlines.
func format3Drive(t *testing.T, b *BPMS, clock *timer.VirtualClock) {
	t.Helper()
	for _, m := range [][2]string{{"payment", "p-1"}, {"reply", "r-1"}, {"recall", "a-2"}} {
		if n, _, err := b.Engine.Publish(m[0], m[1], map[string]any{"via": m[0]}); err != nil || n != 1 {
			t.Fatalf("publish %s/%s: %d, %v", m[0], m[1], n, err)
		}
	}
	clock.Advance(4 * time.Hour)
	b.Timers.AdvanceTo(clock.Now())
	for {
		items := b.Tasks.OfferedItems("carol")
		if len(items) == 0 {
			break
		}
		sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
		for _, it := range items {
			clock.Advance(time.Minute)
			if _, err := b.Tasks.Claim(it.ID, "carol"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Tasks.Start(it.ID, "carol"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Tasks.Complete(it.ID, "carol", map[string]any{"done": it.ElementID}); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Advance(80 * time.Hour)
	b.Timers.AdvanceTo(clock.Now())
}

// TestFormat3DirOpens: a format 3 dir opens with the WAL segment, the
// snapshot and the history segment rewritten, no JSON tail left and its
// history records kept byte for byte; FORMAT becomes current. It
// answers what the build that wrote it answered, before and after every
// parked case moves on, and reopens without a second upgrade.
func TestFormat3DirOpens(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(format3Fixture)); err != nil {
		t.Fatal(err)
	}
	var want [2]string
	for i, name := range []string{"answers.txt", "answers-after.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(data)
	}
	jsonTails := func() int {
		n := 0
		for _, sub := range []string{"state", "snapshots"} {
			files, err := filepath.Glob(filepath.Join(dir, sub, "*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range files {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				n += bytes.Count(data, []byte(`{"tokens":`))
			}
		}
		return n
	}
	if n := jsonTails(); n == 0 {
		t.Fatal("the fixture holds no JSON tail")
	}
	literal := historyPayloads(t, dir)
	clock := timer.NewVirtualClock(time.Date(2026, 7, 8, 10, 30, 18, 0, time.FixedZone("", 2*3600)))
	open := func() *BPMS {
		b, err := Open(Options{DataDir: dir, Clock: clock, Users: []resource.User{{ID: "carol", Roles: []string{"clerk"}}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	answers := func(b *BPMS, upTo uint64) string {
		var events []*history.Event
		err := b.History.All(func(e *history.Event) error {
			if e.Index <= upTo {
				events = append(events, e)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return renderCases(t, b) + renderEvents(t, events)
	}
	b := open()
	if b.Upgrade.Files != 3 || b.Upgrade.Records == 0 {
		t.Errorf("upgrade report %+v, want the WAL segment, the snapshot and the history segment rewritten", b.Upgrade)
	}
	if data, err := os.ReadFile(filepath.Join(dir, formatFile)); err != nil || string(data) != formatLine {
		t.Errorf("FORMAT = %q, %v", data, err)
	}
	if n := jsonTails(); n != 0 {
		t.Errorf("%d JSON tails remain after the upgrade", n)
	}
	if got := answers(b, format3Events); got != want[0] {
		t.Errorf("the format 3 dir answers\n%s\nthe build that wrote it answered\n%s", got, want[0])
	}
	format3Drive(t, b, clock)
	after := answers(b, math.MaxUint64)
	if after != want[1] {
		t.Errorf("after the drive the format 3 dir answers\n%s\nthe build that wrote it answered\n%s", after, want[1])
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if now := historyPayloads(t, dir); len(now) < len(literal) || !slices.EqualFunc(now[:len(literal)], literal, bytes.Equal) {
		t.Error("the history records the fixture held changed")
	}
	b = open()
	defer b.Close()
	if b.Upgrade != (UpgradeReport{}) {
		t.Errorf("second open upgraded %+v", b.Upgrade)
	}
	if got := answers(b, math.MaxUint64); got != after {
		t.Errorf("the reopened dir answers\n%s\nwant\n%s", got, after)
	}
}

var errInjected = errors.New("injected")

// failingFS fails the failAt-th mutating operation (create, write,
// fsync, rename, remove, truncate) and counts them all.
type failingFS struct {
	fault.FS
	mu     sync.Mutex
	ops    int
	failAt int
}

func (f *failingFS) mutate(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.ops == f.failAt {
		return &fs.PathError{Op: op, Path: name, Err: errInjected}
	}
	return nil
}

func (f *failingFS) OpenFile(name string, flag int, perm fs.FileMode) (fault.File, error) {
	if flag&os.O_CREATE != 0 {
		if err := f.mutate("create", name); err != nil {
			return nil, err
		}
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failingFile{File: file, fs: f}, nil
}

func (f *failingFS) Open(name string) (fault.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &failingFile{File: file, fs: f}, nil
}

func (f *failingFS) Rename(oldpath, newpath string) error {
	if err := f.mutate("rename", newpath); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *failingFS) Remove(name string) error {
	if err := f.mutate("remove", name); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

func (f *failingFS) Truncate(name string, size int64) error {
	if err := f.mutate("truncate", name); err != nil {
		return err
	}
	return f.FS.Truncate(name, size)
}

type failingFile struct {
	fault.File
	fs *failingFS
}

func (f *failingFile) Write(p []byte) (int, error) {
	if err := f.fs.mutate("write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *failingFile) Sync() error {
	if err := f.fs.mutate("fsync", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestUpgradeCrashSafe fails Open of a data dir in an older format at
// each of its mutating operations in turn, the upgrade's and then the
// journals': a dir of the committed legacy fixtures, and the format 3
// fixture. Every reopen over the plain filesystem finishes the upgrade,
// answers exactly what the fixtures answered, and leaves no legacy
// record.
func TestUpgradeCrashSafe(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		open := func(dir string, fsys fault.FS) (*BPMS, error) { return openLegacy(t, dir, fsys) }
		crashSafe(t, legacyDataDir, open, answers, fixtureAnswers(t))
	})
	t.Run("format3", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join(format3Fixture, "answers.txt"))
		if err != nil {
			t.Fatal(err)
		}
		copyFixture := func(t *testing.T) string {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(format3Fixture)); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		open := func(dir string, fsys fault.FS) (*BPMS, error) {
			clock := timer.NewVirtualClock(time.Date(2026, 7, 8, 10, 30, 18, 0, time.FixedZone("", 2*3600)))
			return Open(Options{DataDir: dir, FS: fsys, Clock: clock, Users: []resource.User{{ID: "carol", Roles: []string{"clerk"}}}})
		}
		answer := func(t *testing.T, b *BPMS) string {
			var events []*history.Event
			err := b.History.All(func(e *history.Event) error {
				if e.Index <= format3Events {
					events = append(events, e)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return renderCases(t, b) + renderEvents(t, events)
		}
		crashSafe(t, copyFixture, open, answer, string(want))
	})
}

// crashSafe fails the open of each dir mkdir makes at the n-th mutating
// operation, for n = 1, 2, … until an open makes fewer, and holds every
// reopen to want.
func crashSafe(t *testing.T, mkdir func(*testing.T) string, open func(dir string, fsys fault.FS) (*BPMS, error),
	answer func(*testing.T, *BPMS) string, want string) {
	for n := 1; ; n++ {
		dir := mkdir(t)
		b, err := open(dir, &failingFS{FS: fault.OS, failAt: n})
		if err == nil {
			b.Close()
			if n < 10 {
				t.Fatalf("Open made only %d mutating operations", n-1)
			}
			t.Logf("Open makes %d mutating operations", n-1)
			return
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("op %d: %v", n, err)
		}
		b, err = open(dir, nil)
		if err != nil {
			t.Fatalf("op %d failed, then reopen: %v", n, err)
		}
		got := answer(t, b)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("op %d failed, then the reopened dir answers\n%s\nwant\n%s", n, got, want)
		}
		if left := legacyRecords(t, dir); left != 0 {
			t.Fatalf("op %d failed, then %d legacy records remain after the reopen", n, left)
		}
	}
}
