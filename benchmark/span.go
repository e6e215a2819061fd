package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 = none).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // op class, or storage path class
	Start  int64  `json:"startNs"`         // nanoseconds since the tracer began
	End    int64  `json:"endNs"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// The traced replay has one client and is sequential, so "the request in
// flight" is a single value: a storage call made while cur is set belongs
// to that span, whichever goroutine makes it (the group-commit fsync runs
// on the WAL's committer while the handler waits for it).
type tracer struct {
	paused atomic.Bool // set-up and preload are not recorded

	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	client int // open client.call span (0 = none)
	cur    int // open api.handler or shard.call span (0 = none: background work)
	req    int // request counter
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// leaf records a finished span (a storage call) under the current span;
// with none current it is background work (parent 0).
func (t *tracer) leaf(name, class string, start time.Time, bytes int) {
	if t.paused.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	req := 0
	if t.cur != 0 {
		req = t.spans[t.cur-1].Req
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: t.cur, Req: req, Name: name, Class: class,
		Start: int64(start.Sub(t.t0)), End: int64(time.Since(t.t0)), Bytes: bytes})
}

func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (a group-commit fsync runs beside a history write) and may overrun the
// parent; the covered part is the union of their intervals clipped to the
// parent's.
func selfTimes(spans []Span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans stores the spans of one traced run as JSON.
func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
