package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bpms/internal/history"
	"bpms/internal/model"
	"bpms/internal/resource"
	"bpms/internal/task"
	"bpms/internal/timer"
)

// partitionUsers are the clerks of the shard-count equivalence drive.
var partitionUsers = []string{"alice", "bob", "carol"}

// partitionSystem is one system of the drive with the clock it runs on.
type partitionSystem struct {
	b     *BPMS
	clock *timer.VirtualClock
	dir   string
}

func openPartition(t *testing.T, dir string, shards int, clock *timer.VirtualClock) *BPMS {
	t.Helper()
	var users []resource.User
	for _, u := range partitionUsers {
		users = append(users, resource.User{ID: u, Roles: []string{"clerk"}})
	}
	b, err := Open(Options{DataDir: dir, Shards: shards, Clock: clock, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// itemKey names a work item by what it stands for rather than by its
// ID: recovery issues open items again under new IDs, in the order the
// shards replay, which differs between shard counts.
func itemKey(it *task.Item) string {
	return fmt.Sprintf("%s/%s %s %s %v", it.InstanceID, it.ElementID, it.State, it.Assignee, it.OfferedTo)
}

// openItems lists every open item by key, sorted, with the system's
// item ID for each.
func openItems(b *BPMS) (keys []string, ids map[string]string) {
	ids = map[string]string{}
	for _, st := range []task.State{task.Offered, task.Allocated, task.Started} {
		for _, it := range b.Tasks.ByState(st) {
			k := itemKey(it)
			keys = append(keys, k)
			ids[k] = it.ID
		}
	}
	sort.Strings(keys)
	return keys, ids
}

// answersOf is what a system answers, in a form two shard counts must
// agree on: every user's worklist and offered pages (whole, and one
// page in the middle), the worklist's and the engine's counts by state,
// each instance's audit trail and the XES export's set of traces.
// Event indexes (per history journal) and work-item IDs are left out.
func answersOf(t *testing.T, b *BPMS) string {
	t.Helper()
	var out strings.Builder
	keys := func(items []*task.Item) []string {
		var ks []string
		for _, it := range items {
			ks = append(ks, itemKey(it))
		}
		sort.Strings(ks)
		return ks
	}
	for _, u := range partitionUsers {
		fmt.Fprintf(&out, "%s worklist %v\n", u, keys(b.Tasks.Worklist(u)))
		fmt.Fprintf(&out, "%s offered %v\n", u, keys(b.Tasks.OfferedItems(u)))
		fmt.Fprintf(&out, "%s offered page %d\n", u, len(b.Tasks.OfferedPage(u, 2, 3)))
	}
	fmt.Fprintf(&out, "tasks by state %v\n", b.Tasks.Stats().ByState)
	byStatus := map[string]int{}
	for _, s := range b.Engine.Summaries() {
		byStatus[fmt.Sprint(s.Status)]++
	}
	fmt.Fprintf(&out, "instances by status %v\n", byStatus)
	ids := b.Engine.Instances()
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&out, "%s\n", id)
		for _, e := range b.History.EventsOf(id) {
			data, err := json.Marshal(e.Data)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "  %s %s %s %s %s %s\n", e.Type, e.Time.Format(time.RFC3339), e.ElementID, e.Element, e.Actor, data)
		}
	}
	var xes bytes.Buffer
	if err := history.StreamXES(&xes, b.History, false); err != nil {
		t.Fatal(err)
	}
	traces := strings.Split(xes.String(), "<trace>")[1:]
	sort.Strings(traces)
	fmt.Fprintf(&out, "%d XES traces\n%s", len(traces), strings.Join(traces, ""))
	return out.String()
}

// TestShardCountEquivalence drives one seeded op stream — starts,
// claims, starts of work, completions, delegations and a restart —
// through a 1-shard and a 4-shard system on data dirs in lockstep. The
// shard count places cases, their history journals and nothing else:
// both must answer the same worklist pages, audit trails, counts by
// state and XES traces, and the history has one journal per shard.
func TestShardCountEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { shardEquivalence(t, seed, 160) })
	}
}

func shardEquivalence(t *testing.T, seed int64, steps int) {
	p := model.New("manifest").
		Start("s").UserTask("check", model.Role("clerk")).UserTask("clear", model.Role("clerk")).End("e").
		Seq("s", "check", "clear", "e").MustBuild()
	var systems []*partitionSystem
	for _, shards := range []int{1, 4} {
		clock := timer.NewVirtualClock(time.Date(2026, 10, 1, 9, 0, 0, 0, time.UTC))
		dir := t.TempDir()
		b := openPartition(t, dir, shards, clock)
		if err := b.Deploy(p); err != nil {
			t.Fatal(err)
		}
		systems = append(systems, &partitionSystem{b, clock, dir})
	}
	defer func() {
		for _, s := range systems {
			s.b.Close()
		}
	}()
	check := func(when string) {
		t.Helper()
		for _, s := range systems {
			if got, want := s.b.History.Stripes(), s.b.Engine.Shards(); got != want {
				t.Errorf("%s: %d history journals for %d shards", when, got, want)
			}
		}
		if one, four := answersOf(t, systems[0].b), answersOf(t, systems[1].b); one != four {
			t.Fatalf("%s: 1 shard answers\n%s\n4 shards answer\n%s", when, one, four)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	user := func() string { return partitionUsers[rng.Intn(len(partitionUsers))] }
	for step := 0; step < steps; step++ {
		for _, s := range systems {
			s.clock.Advance(time.Second)
		}
		if step == steps/2 {
			check("before the restart")
			for i, s := range systems {
				if err := s.b.Close(); err != nil {
					t.Fatal(err)
				}
				s.b = openPartition(t, s.dir, []int{1, 4}[i], s.clock)
			}
			check("after the restart")
		}
		keys, _ := openItems(systems[0].b)
		if len(keys) == 0 || rng.Intn(10) < 3 {
			amount := rng.Intn(1000)
			for _, s := range systems {
				if _, err := s.b.Engine.StartInstance("manifest", map[string]any{"amount": amount}); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		key := keys[rng.Intn(len(keys))]
		other := user()
		for _, s := range systems {
			_, ids := openItems(s.b)
			id, ok := ids[key]
			if !ok {
				t.Fatalf("step %d: item %s missing on %d shards", step, key, s.b.Engine.Shards())
			}
			it, err := s.b.Tasks.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			switch it.State {
			case task.Offered:
				_, err = s.b.Tasks.Claim(id, it.OfferedTo[len(it.OfferedTo)-1])
			case task.Allocated:
				if other != it.Assignee && step%2 == 0 {
					_, err = s.b.Tasks.Delegate(id, it.Assignee, other)
				} else {
					_, err = s.b.Tasks.Start(id, it.Assignee)
				}
			case task.Started:
				_, err = s.b.Tasks.Complete(id, it.Assignee, map[string]any{"by": it.Assignee})
			}
			if err != nil {
				t.Fatalf("step %d on %d shards: %v", step, s.b.Engine.Shards(), err)
			}
		}
	}
	check("at the end")
}

// legacyStripesFixture is a data dir written with one engine shard and
// two history stripes, when the history stripe count was a setting of
// its own. answers.txt holds each instance's audit trail as that build
// answered it.
const legacyStripesFixture = "testdata/history-stripes2"

// TestLegacyHistoryStripes: a data dir whose history stripe count
// differs from its shard count reopens with its own journals, answers
// every instance's history as the build that wrote it did, and keeps
// recording each case on the journal its events hash to. A dir holding
// history journals in both layouts is refused.
func TestLegacyHistoryStripes(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(legacyStripesFixture)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	clock := timer.NewVirtualClock(time.Date(2026, 10, 1, 10, 0, 0, 0, time.UTC))
	open := func() *BPMS {
		t.Helper()
		b, err := Open(Options{DataDir: dir, Clock: clock, Users: []resource.User{{ID: "carol", Roles: []string{"clerk"}}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.History.Stripes(); got != 2 {
			t.Fatalf("opened %d history journals, the dir holds 2", got)
		}
		return b
	}
	b := open()
	if b.Upgrade.Files != 3 {
		t.Errorf("upgrade report %+v, want the state segment and both history segments reframed", b.Upgrade)
	}
	// Recovery re-issues the open cases' work items, which appends to
	// their trails: each answer must be a prefix of today's.
	ids := b.Engine.Instances()
	blocks := strings.SplitAfter(string(want), "\n")
	var cur string
	wantOf := map[string]string{}
	for _, line := range blocks {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") && !strings.Contains(line, `"`) {
			cur = strings.TrimSpace(line)
			continue
		}
		wantOf[cur] += line
	}
	if len(wantOf) != len(ids) || len(ids) == 0 {
		t.Fatalf("the fixture answers %d instances, the dir holds %d", len(wantOf), len(ids))
	}
	for _, id := range ids {
		if got := renderEvents(t, b.History.EventsOf(id)); !strings.HasPrefix(got, wantOf[id]) {
			t.Errorf("history of %s:\n%s\nthe build that wrote it answered\n%s", id, got, wantOf[id])
		}
	}
	// The open cases move on, and a new case starts: each lands on
	// the journal its events already hash to.
	items := b.Tasks.OfferedItems("carol")
	if len(items) == 0 {
		t.Fatal("no open work item recovered")
	}
	for _, it := range items {
		clock.Advance(time.Minute)
		b.Tasks.Claim(it.ID, "carol")
		b.Tasks.Start(it.ID, "carol")
		if _, err := b.Tasks.Complete(it.ID, "carol", nil); err != nil {
			t.Fatal(err)
		}
	}
	v, err := b.Engine.StartInstance("manifest", nil)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for _, id := range append(ids, v.ID) {
		before[id] = renderEvents(t, b.History.EventsOf(id))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = open()
	if b.Upgrade != (UpgradeReport{}) {
		t.Errorf("second open upgraded %+v", b.Upgrade)
	}
	for id, trail := range before {
		if got := renderEvents(t, b.History.EventsOf(id)); !strings.HasPrefix(got, trail) {
			t.Errorf("after a reopen the history of %s is\n%s\nwant it to begin\n%s", id, got, trail)
		}
		if evs := b.History.EventsOf(id); len(evs) == 0 || evs[0].Type != history.InstanceStarted {
			t.Errorf("history of %s does not begin with %s", id, history.InstanceStarted)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// A wal-* segment directly under history/ beside the stripe dirs:
	// neither layout can be trusted to hold every event.
	if err := os.WriteFile(filepath.Join(dir, "history", "wal-00000000000000000001.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir}); err == nil || !strings.Contains(err.Error(), "both layouts") {
		t.Fatalf("a mixed history layout opened: %v", err)
	}
}

// TestHistoryStripeGapRefused: history stripe dirs not numbered 0…n-1
// are refused rather than opened short of a journal.
func TestHistoryStripeGapRefused(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"stripe-0000", "stripe-0002"} {
		if err := os.MkdirAll(filepath.Join(dir, "history", name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(Options{DataDir: dir}); err == nil {
		t.Fatal("history stripes 0 and 2 opened")
	}
}

// TestShardDiskBytes: a shard's DiskBytes is its state WAL plus its
// snapshots — at one shard too, where the shard's dir is the data dir
// root and also holds the history journals and FORMAT.
func TestShardDiskBytes(t *testing.T) {
	size := func(root string) int64 {
		var n int64
		filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				info, _ := d.Info()
				n += info.Size()
			}
			return nil
		})
		return n
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			b, err := Open(Options{DataDir: dir, Shards: shards, SnapshotEvery: 4,
				Users: []resource.User{{ID: "alice", Roles: []string{"clerk"}}}})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			p := model.New("held").
				Start("s").UserTask("work", model.Role("clerk")).End("e").
				Seq("s", "work", "e").MustBuild()
			if err := b.Deploy(p); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if _, err := b.Engine.StartInstance("held", nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Engine.Snapshot(); err != nil {
				t.Fatal(err)
			}
			// End the automatic rounds SnapshotEvery queued: one landing
			// between ShardStats and the walk below changes snapshots/.
			b.Engine.Close()
			if err := b.SyncJournals(); err != nil {
				t.Fatal(err)
			}
			if size(filepath.Join(dir, "history")) == 0 {
				t.Fatal("the history journals are empty")
			}
			var sum int64
			for _, st := range b.ShardStats() {
				home := shardDir(dir, shards, st.Shard)
				want := size(filepath.Join(home, "state")) + size(filepath.Join(home, "snapshots"))
				if want == 0 || st.DiskBytes != want {
					t.Errorf("shard %d: DiskBytes = %d, its state and snapshots hold %d", st.Shard, st.DiskBytes, want)
				}
				sum += st.DiskBytes
			}
			if others := size(dir) - size(filepath.Join(dir, "history")) - sum; others != int64(len(formatLine)) {
				t.Errorf("the shards leave %d bytes of the data dir uncounted besides the history, want FORMAT's %d", others, len(formatLine))
			}
		})
	}
}
