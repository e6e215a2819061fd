package history

import (
	"reflect"
	"testing"

	"bpms/internal/storage"
)

// tallyBody encodes counts, by instance ID, and none records of no
// instance as an index body.
func tallyBody(counts map[string]int, none int) ([]byte, uint64) {
	t := segTally{none: none}
	records := uint64(none)
	for id, n := range counts {
		t.insts = append(t.insts, &instance{id: id, seg: int32(n)})
		records += uint64(n)
	}
	return t.encode(records), records
}

// indexCounts opens a stripe on one sealed segment of records records
// whose index body is body, and returns the counts it took and whether
// it took the body.
func indexCounts(body []byte, records uint64) (*stripe, map[string]int, bool) {
	st := newStripe(storage.NewMemJournal(), 0, nil)
	segs := []storage.Segment{{Base: 1, End: 1 + records, Sealed: true, Index: body}}
	st.addIndexes(segs)
	counts := map[string]int{}
	for id, inst := range st.insts {
		counts[id] = int(inst.count)
	}
	return st, counts, segs[0].Index != nil
}

// TestSegmentIndexRoundTrip: a tally of numbered, literal and odd IDs
// reads back as the same counts, numbered IDs as process and number,
// and a tally that did not count every record of its segment writes no
// body.
func TestSegmentIndexRoundTrip(t *testing.T) {
	counts := map[string]int{
		"order-1": 3, "order-2": 1, "order-1000": 16, "bench-pipeline-7": 2,
		"a-b-3": 1, "a--4": 2, "order-007": 5, "x-0": 1, "-5": 1, "plain": 4,
		"p-18446744073709551615": 1, "p-18446744073709551616": 1, "zoë-1": 2,
	}
	body, records := tallyBody(counts, 3)
	if body == nil {
		t.Fatal("no body for a complete tally")
	}
	st, got, ok := indexCounts(body, records)
	if !ok || !reflect.DeepEqual(got, counts) || st.count != int(records) {
		t.Fatalf("counts %v (taken %v, %d records), want %v", got, ok, st.count, counts)
	}
	if _, _, ok := indexCounts(body, records+1); ok {
		t.Error("a body taken for a segment of one more record")
	}
	var short segTally
	short.add(&instance{id: "order-1"})
	if body := short.encode(2); body != nil {
		t.Errorf("a tally of 1 record encoded for 2: %q", body)
	}
}

// FuzzHistoryIndex feeds any bytes to a stripe as the index body of a
// segment of records records. It must not panic. A body the stripe
// declines leaves it as it was, so the segment is read and counted
// instead; one it takes counts every record of the segment, and its
// counts encode to a body that reads as the same counts.
func FuzzHistoryIndex(f *testing.F) {
	for _, c := range []struct {
		counts map[string]int
		none   int
	}{
		{map[string]int{"order-1": 3, "order-2": 16, "order-9": 1}, 0},
		{map[string]int{"bench-pipeline-1": 16, "x-0": 2, "plain": 1}, 4},
		{nil, 5},
	} {
		body, records := tallyBody(c.counts, c.none)
		f.Add(body, uint16(records))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x01, 0x01, 0x00}, uint16(1))
	f.Fuzz(func(t *testing.T, body []byte, records uint16) {
		st, counts, ok := indexCounts(body, uint64(records))
		if !ok {
			if len(st.insts) != 0 || st.count != 0 {
				t.Fatalf("a declined body left %d instances, count %d", len(st.insts), st.count)
			}
			return
		}
		sum := 0
		for _, n := range counts {
			if n <= 0 {
				t.Fatalf("count %d in %v", n, counts)
			}
			sum += n
		}
		if st.count != int(records) || sum > int(records) {
			t.Fatalf("took %d records, %d of instances, for a segment of %d", st.count, sum, records)
		}
		again, n := tallyBody(counts, int(records)-sum)
		if _, got, ok := indexCounts(again, n); !ok || !reflect.DeepEqual(got, counts) {
			t.Fatalf("counts %v encode to %q, which reads as %v (taken %v)", counts, again, got, ok)
		}
	})
}
