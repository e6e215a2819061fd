package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bpms/internal/expr"
	"bpms/internal/model"
	"bpms/internal/storage"
)

func openStreamingFixture(t *testing.T, dir string, cfg Config) (*Engine, *storage.FileJournal) {
	t.Helper()
	j, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	if cfg.Snapshots == nil {
		sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Snapshots = sn
	}
	e, err := newTestEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterHandler(model.NoopHandler, func(TaskContext) (map[string]expr.Value, error) {
		return nil, nil
	})
	return e, j
}

// TestStreamingSnapshotRecoverRoundtrip: a streaming snapshot plus a
// journal suffix recover every instance, including variables and
// statuses.
func TestStreamingSnapshotRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	// Enough finished cases to fill the first 8 KiB segment, so the
	// snapshot has a sealed prefix to drop.
	const before, after = 200, 25
	for i := 0; i < before; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if j.FirstIndex() <= 1 {
		t.Fatal("snapshot did not truncate the journal prefix")
	}
	for i := before; i < before+after; i++ {
		if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	wantIDs := e.Instances()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := newTestEngine(Config{Journal: j2, Snapshots: sn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs := e2.Instances()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("recovered %d instances, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("instance %d = %q, want %q", i, gotIDs[i], wantIDs[i])
		}
	}
	// Spot-check one instance's recovered vars and status.
	v, err := e2.Instance(wantIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCompleted {
		t.Fatalf("status = %s", v.Status)
	}
}

// TestSnapshotWhileAppending drives concurrent StartInstance traffic
// against repeated Snapshot calls (run with -race: the streaming
// writer locks each instance briefly while writers mutate others), then
// proves a cold start recovers every acknowledged instance.
func TestSnapshotWhileAppending(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("seq-3-%d", w*per+i+1)
				if _, err := e.StartInstanceID("seq-3", id, map[string]any{"w": w}); err != nil {
					t.Errorf("start %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := e.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	// One final snapshot over quiesced state, then cold start.
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := newTestEngine(Config{Journal: j2, Snapshots: sn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e2.Instances()); got != writers*per {
		t.Fatalf("recovered %d instances, want %d", got, writers*per)
	}
}

// TestRequestSnapshotRearm: a snapshot request that arrives while a
// round is running is not dropped. The first round is held after it has
// read its journal index, a start then requests another, and once the
// held round is let go the snapshotter runs one more, so the last
// snapshot covers the whole journal. With the request dropped it would
// stop short of the second start's records.
func TestRequestSnapshotRearm(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{SnapshotEvery: 1})
	defer j.Close()
	defer e.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e.afterSnapshotIndex = func() {
		once.Do(func() {
			close(held)
			<-release
		})
	}
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	<-held
	if _, err := e.StartInstance("seq-3", nil); err != nil {
		t.Fatal(err)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for e.lastSnapIndex.Load() != j.LastIndex() {
		if time.Now().After(deadline) {
			t.Fatalf("last snapshot at index %d, journal at %d: the request made mid-round was dropped",
				e.lastSnapIndex.Load(), j.LastIndex())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotUnderLoadLosesNoAckedStart: cases acknowledged while a
// snapshot is being taken survive a restart from that snapshot. Seeded
// starters run against a durable engine while Snapshot loops, and the
// hook holds every snapshot between its two steps — journal index,
// instance listing — until some starter has begun and finished a start
// there. With the steps the other way round (listing, then index) such
// a case is in neither the image nor the replayed suffix: the last
// snapshot is taken under load like the others, so the reopened engine
// comes back short.
func TestSnapshotUnderLoadLosesNoAckedStart(t *testing.T) {
	const starters, snapshots = 3, 6
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}

	// Cancelled when the snapshots are done, or by a starter that fails.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ticks := make(chan struct{})
	// More acknowledgements than there are starters: at least one
	// starter has then run a whole start inside the window.
	e.afterSnapshotIndex = func() {
		for i := 0; i <= starters; i++ {
			select {
			case <-ticks:
			case <-ctx.Done():
			}
		}
	}
	type ack struct {
		id     string
		status Status
	}
	acked := make([][]ack, starters)
	var wg sync.WaitGroup
	for w := range acked {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				v, err := e.StartInstance("seq-3", map[string]any{"n": rng.Intn(1000)})
				if err != nil {
					t.Errorf("start: %v", err)
					cancel()
					return
				}
				acked[w] = append(acked[w], ack{v.ID, v.Status})
				select {
				case ticks <- struct{}{}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	for i := 0; i < snapshots; i++ {
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	e2, j2 := openStreamingFixture(t, dir, Config{})
	defer j2.Close()
	total := 0
	for _, list := range acked {
		total += len(list)
		for _, a := range list {
			v, err := e2.Instance(a.id)
			if err != nil {
				t.Errorf("acknowledged case lost across the restart: %v", err)
			} else if v.Status != a.status {
				t.Errorf("%s recovered %s, was acknowledged %s", a.id, v.Status, a.status)
			}
		}
	}
	if total < snapshots*(starters+1) {
		t.Fatalf("only %d starts were acknowledged; the window stayed empty", total)
	}
}

// TestLegacyDamagedSnapshotGapRefused is TestDamagedSnapshotGapRefused
// on a dir written before binary records: Upgrade rewrites the journal
// and the intact snapshot but leaves the damaged newest one as it is,
// and recovery then refuses to open, naming the gap, as it does on a
// current dir.
func TestLegacyDamagedSnapshotGapRefused(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 200} {
		for i := 0; i < n; i++ {
			if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeDir(t, dir)
	newest := filepath.Join(dir, "snapshots", fmt.Sprintf("snap-%020d.snap", 301))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := upgradeDirs(filepath.Join(dir, "state"), filepath.Join(dir, "snapshots"))
	if err != nil || st.Files < 2 {
		t.Fatalf("upgrade = %+v, %v; want the journal and the older snapshot rewritten", st, err)
	}
	if after, _ := os.ReadFile(newest); !bytes.Equal(after, data) {
		t.Error("the upgrade rewrote the damaged snapshot")
	}
	j2, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if e2, err := newTestEngine(Config{Journal: j2, Snapshots: sn}, nil); err == nil {
		t.Fatalf("recovered %d of 300 cases without an error", len(e2.Instances()))
	} else if !strings.Contains(err.Error(), "recovery needs it from") {
		t.Fatalf("error does not name the gap: %v", err)
	}
}

// TestDamagedSnapshotGapRefused: when the newest snapshot is damaged,
// the store falls back to the older one, but the journal was compacted
// past the newest, so the records between the two are gone. Recovery
// must refuse to open, naming the gap, not come back with a fraction of
// the acknowledged cases; likewise when no snapshot is readable at all.
func TestDamagedSnapshotGapRefused(t *testing.T) {
	dir := t.TempDir()
	e, j := openStreamingFixture(t, dir, Config{})
	if err := e.Deploy(model.Sequence(3)); err != nil {
		t.Fatal(err)
	}
	start := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.StartInstance("seq-3", map[string]any{"n": i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	start(100)
	start(200)
	sn, err := e.snapshots.LatestSnapshot()
	if err != nil || sn == nil || sn.Index != 301 {
		t.Fatalf("newest snapshot %+v, %v; want index 301", sn, err)
	}
	if first := j.FirstIndex(); first <= 102 {
		t.Fatalf("journal starts at %d: nothing past the older snapshot was compacted", first)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	damage := func(index uint64) {
		name := filepath.Join(dir, "snapshots", fmt.Sprintf("snap-%020d.snap", index))
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func() error {
		j2, err := storage.OpenFileJournal(filepath.Join(dir, "state"), storage.Options{SegmentSize: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		sn, err := storage.OpenSnapshotStore(filepath.Join(dir, "snapshots"), 2)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := newTestEngine(Config{Journal: j2, Snapshots: sn}, nil)
		if err == nil {
			return fmt.Errorf("recovered %d of 300 cases without an error", len(e2.Instances()))
		}
		if !strings.Contains(err.Error(), "recovery needs it from") {
			return fmt.Errorf("error does not name the gap: %v", err)
		}
		return nil
	}
	damage(301)
	if err := reopen(); err != nil {
		t.Errorf("newest snapshot damaged: %v", err)
	}
	damage(101)
	if err := reopen(); err != nil {
		t.Errorf("both snapshots damaged: %v", err)
	}
}
