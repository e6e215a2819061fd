package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bpms/internal/engine"
)

// TestInMemoryCaseHeap gates what a finished case costs a system opened
// without a data dir: the engine's archive entry and the case's packed
// audit trail, with no state journal kept beside them. The trail stays
// whole: the first case, long evicted from the window, still replays
// all its events.
func TestInMemoryCaseHeap(t *testing.T) {
	b, err := Open(Options{HistoryWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p, err := b.DeployFile("../../benchmark/testdata/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		if err := b.History.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const cases = 4000
	regions := []string{"north", "south", "east", "west"}
	r := rand.New(rand.NewSource(1))
	before := heap()
	var first string
	for i := 0; i < cases; i++ {
		v, err := b.Engine.StartInstance(p.ID, map[string]any{"amount": r.Intn(10000),
			"customer": fmt.Sprintf("c-%06d", r.Intn(1000000)), "region": regions[r.Intn(4)]})
		if err != nil || v.Status != engine.StatusCompleted {
			t.Fatalf("start: %+v, %v", v, err)
		}
		if first == "" {
			first = v.ID
		}
	}
	per := float64(heap()-before) / cases
	t.Logf("%.0f B of heap per in-memory case", per)
	if per > 1130 {
		t.Errorf("%d in-memory cases hold %.0f B/case of heap, want at most 1130", cases, per)
	}
	// One record per deployment and per case, numbered though not kept.
	if got := b.ShardStats()[0].JournalLast; got != 1+cases {
		t.Errorf("journalLast = %d, want %d", got, 1+cases)
	}
	if got := len(b.History.EventsOf(first)); got != 16 {
		t.Errorf("history of %s = %d events, want 16", first, got)
	}
}
