package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bpms/internal/expr"
	"bpms/internal/fault"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/storage"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// testdata/json-state is a state dir written by the engine as of commit
// 054feee, the last to write JSON instance records: a streaming
// snapshot and the WAL suffix after it, with the answers that engine
// gave on reopening the dir in answers.txt. It holds finished cases
// with every Value kind, one under an ID JSON escapes, a live case
// parked at a multi-instance task beside a waiting join, and times in a
// zone five and a half hours east of UTC.
const jsonStateDir = "testdata/json-state"

// upgradeZone is the zone the fixture's clock runs in.
var upgradeZone = time.FixedZone("", 5*3600+30*60)

// upgradeDefinitions are the fixture's processes: a script pipeline that
// runs to its end, and a case that forks into a parallel multi-instance
// review and a script that waits for it at a join.
func upgradeDefinitions() []*model.Process {
	return []*model.Process{
		model.New("flow").Start("s").ScriptTask("tag", model.Output("tagged", "amount * 2")).End("e").
			Seq("s", "tag", "e").MustBuild(),
		model.New("held").Start("s").AND("fork").
			UserTask("review", model.Role("clerk"), model.MultiParallel("items", "item")).
			ScriptTask("fast", model.Output("quick", "true")).AND("join").End("e").
			Flow("s", "fork").Flow("fork", "review").Flow("fork", "fast").
			Flow("review", "join").Flow("fast", "join").Flow("join", "e").MustBuild(),
	}
}

// upgradeVars holds a variable of each Value kind.
func upgradeVars(n int) map[string]any {
	return map[string]any{
		"amount": n, "ratio": 2.5, "name": `zoë <&> "q"`, "ok": true, "none": nil,
		"tags": []any{"a", 1, 1.5, nil}, "meta": map[string]any{"k": []any{false}, "": "empty key"},
	}
}

// openUpgradeDir opens an engine on the state dir under dir.
func openUpgradeDir(t *testing.T, dir string, clock timer.Clock) (*Engine, *storage.FileJournal, *task.Service) {
	t.Helper()
	e, j, tasks, err := tryOpenUpgradeDir(t, dir, clock)
	if err != nil {
		t.Fatal(err)
	}
	return e, j, tasks
}

// tryOpenUpgradeDir is openUpgradeDir returning the journal's or New's
// error; the journal is closed when the test ends.
func tryOpenUpgradeDir(t *testing.T, dir string, clock timer.Clock) (*Engine, *storage.FileJournal, *task.Service, error) {
	t.Helper()
	j, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	t.Cleanup(func() { j.Close() })
	snaps, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		t.Fatal(err)
	}
	users := resource.NewDirectory()
	users.AddUser(&resource.User{ID: "carol", Roles: []string{"clerk"}})
	tasks := task.NewService(task.Config{Directory: users, Now: clock.Now})
	e, err := newTestEngine(Config{Journal: j, Snapshots: snaps, Tasks: tasks, Clock: clock,
		Timers: timer.NewWheelService(time.Millisecond, 64)}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) { return nil, nil })
	return e, j, tasks, nil
}

// renderCases spells out what a client reads of each case: identity,
// status, both times with their Location, every variable with its kind,
// and the parked tokens.
func renderCases(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, id := range e.Instances() {
		v, err := e.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%q %s %s\n", v.ID, v.ProcessID, v.Status)
		for _, at := range []time.Time{v.StartedAt, v.EndedAt} {
			fmt.Fprintf(&b, "  %s %q\n", at.Format(time.RFC3339Nano), at.Location())
		}
		keys := make([]string, 0, len(v.Vars))
		for k := range v.Vars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %q %s %s\n", k, v.Vars[k].Kind(), v.Vars[k])
		}
		for _, tok := range v.ActiveTokens {
			fmt.Fprintf(&b, "  token %d %s %s\n", tok.ID, tok.Element, tok.Wait)
		}
	}
	return b.String()
}

// TestJSONStateDirOpens: the JSON-era fixture does not open as it is,
// nor once reframed with its records kept, which the engine refuses.
// Upgraded, it answers as the engine that wrote it did, and a second
// upgrade rewrites nothing. Then binary records go on top, finishing
// the live case and starting new ones, and the dir reopens alike from
// its journal and again from a snapshot over it, which holds binary
// records only.
func TestJSONStateDirOpens(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(jsonStateDir, "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(jsonStateDir)); err != nil {
		t.Fatal(err)
	}
	clock := timer.NewVirtualClock(time.Date(2026, 2, 3, 4, 5, 6, 7000, upgradeZone))
	stateDir, snapDir := filepath.Join(dir, "state"), filepath.Join(dir, "snapshots")
	if _, _, _, err := tryOpenUpgradeDir(t, dir, clock); err == nil {
		t.Fatal("the JSON-era dir opened without an upgrade")
	}
	for _, sub := range []string{stateDir, snapDir} {
		if st, err := storage.Upgrade(fault.OS, sub, nil, nil); err != nil || st.Files != 1 || st.Records != 0 {
			t.Fatalf("reframing %s = %+v, %v", sub, st, err)
		}
	}
	if _, _, _, err := tryOpenUpgradeDir(t, dir, clock); err == nil {
		t.Fatal("the reframed JSON-era dir opened without its records upgraded")
	}
	if st, err := upgradeDirs(stateDir, snapDir); err != nil || st.Files != 2 || st.Records == 0 {
		t.Fatalf("upgrade = %+v, %v; want the segment and the snapshot rewritten", st, err)
	}
	if st, err := upgradeDirs(stateDir, snapDir); err != nil || st != (storage.UpgradeStats{}) {
		t.Fatalf("second upgrade = %+v, %v; want nothing rewritten", st, err)
	}
	e, j, tasks := openUpgradeDir(t, dir, clock)
	if got := renderCases(t, e); got != string(want) {
		t.Fatalf("JSON-era dir reopens as\n%s\nthe engine that wrote it answered\n%s", got, want)
	}
	if n := e.ArchivedCount(); n != 3 {
		t.Errorf("%d cases archived, want the 3 finished", n)
	}

	// Binary records on top: the live case finishes, two more start.
	items := tasks.OfferedItems("carol")
	if len(items) != 2 {
		t.Fatalf("%d review items re-issued, want 2", len(items))
	}
	for _, it := range items {
		if _, err := tasks.Claim(it.ID, "carol"); err != nil {
			t.Fatal(err)
		}
		if _, err := tasks.Start(it.ID, "carol"); err != nil {
			t.Fatal(err)
		}
		if _, err := tasks.Complete(it.ID, "carol", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.StartInstance("flow", upgradeVars(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartInstanceID("flow", "new \"binary\" case", upgradeVars(10)); err != nil {
		t.Fatal(err)
	}
	mixed := renderCases(t, e)
	if !strings.Contains(mixed, `"held-3" held completed`) {
		t.Fatalf("the live case did not finish:\n%s", mixed)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	e2, j2, _ := openUpgradeDir(t, dir, clock)
	if got := renderCases(t, e2); got != mixed {
		t.Errorf("mixed dir reopens as\n%s\nwant\n%s", got, mixed)
	}
	// A snapshot writes every case as a binary record; the dir then
	// reopens from it alone.
	if err := e2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	sn, err := e2.snapshots.LatestSnapshot()
	if err != nil || sn == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	kinds := map[string]int{}
	if err := sn.Iterate(func(p []byte) error {
		switch {
		case p[0] == stateV2:
			kinds["binary"]++
		case strings.HasPrefix(string(p), `{"kind":"instance"`):
			kinds["json"]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if kinds["json"] != 0 || kinds["binary"] != 6 {
		t.Errorf("snapshot holds %v instance records, want 6 binary", kinds)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, j3, _ := openUpgradeDir(t, dir, clock)
	defer j3.Close()
	if got := renderCases(t, e3); got != mixed {
		t.Errorf("mixed dir reopens from a snapshot as\n%s\nwant\n%s", got, mixed)
	}
	if n := e3.ArchivedCount(); n != 6 {
		t.Errorf("%d cases archived, want 6", n)
	}
}

// checkUpgradeRecord is the transcoder contract, on any record: no
// panic; a record it keeps is binary without a JSON tail or not an
// instance envelope; a record it transcodes decodes, to the case
// encoding/json reads from the envelope's state or from the binary
// record's JSON tail (but for a time in Local at offset 0, which the
// binary encoder turns into UTC).
func checkUpgradeRecord(t *testing.T, rec []byte) {
	t.Helper()
	out, err := upgradeRecord(rec)
	if err != nil {
		return
	}
	_, head, headErr := parseStateHead(rec)
	jsonTail := headErr == nil && head < len(rec) && rec[head] == '{'
	var env jsonRecord
	if out == nil {
		if jsonTail || len(rec) > 0 && rec[0] != stateV2 && (json.Unmarshal(rec, &env) != nil || env.Kind == "instance") {
			t.Fatalf("upgrade kept %q", rec)
		}
		return
	}
	got, err := decodeCase(out)
	if err != nil {
		t.Fatalf("upgrade of %q gives %x, which does not decode: %v", rec, out, err)
	}
	if jsonTail {
		st, _, _ := parseStateHead(rec)
		var tail jsonState
		if err := json.Unmarshal(rec[head:], &tail); err != nil {
			t.Fatalf("upgrade transcoded %q, whose tail encoding/json rejects: %v", rec, err)
		}
		st.Tokens, st.Joins = tail.Tokens, tail.Joins
		if a, b := renderState(got), renderState(instanceOf(st)); a != b {
			t.Fatalf("upgrade of %q decodes to\n%s\nits JSON tail reads\n%s", rec, a, b)
		}
		return
	}
	var st jsonState
	if err := json.Unmarshal(rec, &env); err != nil || env.Kind != "instance" {
		t.Fatalf("upgrade transcoded %q, which is no instance envelope (%v)", rec, err)
	}
	if err := json.Unmarshal(env.State, &st); err != nil {
		t.Fatalf("upgrade transcoded %q, whose state encoding/json rejects: %v", rec, err)
	}
	want := instanceOf((*instState)(&st))
	if a, b := renderState(got), renderState(want); a != b && !localAtZero(want) {
		t.Fatalf("upgrade of %q decodes to\n%s\nencoding/json reads\n%s", rec, a, b)
	}
}

// FuzzUpgradeRecord holds the instance state transcoder to
// checkUpgradeRecord, seeded with the JSON and binary records of the
// sample cases, a deployment and damaged envelopes.
func FuzzUpgradeRecord(f *testing.F) {
	for _, inst := range sampleCases() {
		js, err := legacyStateRecord(inst)
		if err != nil {
			f.Fatal(err)
		}
		f3, err := format3Record(inst)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
		f.Add(encodeInstance(nil, inst))
		f.Add(f3)
	}
	for _, s := range []string{
		`{"kind":"deploy","process":{"id":"p"}}`,
		`{"kind":"instance"}`,
		`{"kind":"instance","state":null}`,
		`{"kind":"instance","state":{"id":"p-1","tokens":[null]}}`,
		`{"kind":"instance","state":{"id":"p-1","processId":"p","status":7}}`,
		`{"state":{"id":"p-1","processId":"p","status":9,"vars":{"a":{"b":[1,"x",null]}}},"kind":"instance"}`,
		`{"kind":"instance","state":{"id":"p-1","startedAt":"2026-01-02T03:04:05+00:00"}}`,
		`[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkUpgradeRecord)
}
