package main

import "testing"

// Self time is the span's duration minus the union of its children's
// intervals: overlapping children are not subtracted twice, and a child
// that overruns the parent is clipped to it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "api.handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "storage.write", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "storage.sync", Start: 30, End: 60},   // overlaps 2
		{ID: 4, Parent: 1, Name: "storage.write", Start: 35, End: 38},  // inside 2 and 3
		{ID: 5, Parent: 1, Name: "storage.write", Start: 90, End: 130}, // overruns the parent
		{ID: 6, Parent: 2, Name: "nested", Start: 15, End: 20},
		{ID: 7, Name: "background", Start: 0, End: 50},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (60 - 10) - (100 - 90), // covered: [10,60) and [90,100)
		2: 30 - 5,
		3: 30,
		5: 40,
		7: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerAttributesStorageToTheRequestInFlight(t *testing.T) {
	tr := newTracer()
	c := tr.beginClient("start")
	h := tr.beginServe(spanHandler, "start")
	tr.leaf("storage.sync", pathState, tr.t0, 0)
	tr.endClient(c)     // the client may finish first
	tr.endServe(h, 185) // a late handler end must not disturb the next request
	tr.leaf("storage.write", pathHistory, tr.t0, 64)
	spans := tr.snapshot()
	if spans[1].Parent != c || spans[2].Parent != h || spans[3].Parent != 0 {
		t.Errorf("parents = %d, %d, %d; want %d, %d, 0", spans[1].Parent, spans[2].Parent, spans[3].Parent, c, h)
	}
	if spans[1].Bytes != 185 || spans[2].Req != spans[0].Req || spans[3].Req != 0 {
		t.Errorf("spans = %+v", spans)
	}
}
