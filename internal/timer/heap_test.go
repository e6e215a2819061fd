package timer

import (
	"container/heap"
	"sync"
	"time"
)

// HeapService is a binary-heap implementation of Service: O(log n)
// schedule and fire, O(1) peek, and exact deadlines. It is the oracle
// the timing wheel is checked against.
type HeapService struct {
	mu     sync.Mutex
	h      entryHeap
	byID   map[ID]*heapEntry
	nextID ID
}

type heapEntry struct {
	id        ID
	at        time.Time
	fn        func()
	pos       int
	cancelled bool
}

type entryHeap []*heapEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(a, b int) bool {
	if !h[a].at.Equal(h[b].at) {
		return h[a].at.Before(h[b].at)
	}
	return h[a].id < h[b].id
}
func (h entryHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].pos = a
	h[b].pos = b
}
func (h *entryHeap) Push(x any) {
	e := x.(*heapEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewHeapService returns an empty heap-based timer service.
func NewHeapService() *HeapService {
	return &HeapService{byID: map[ID]*heapEntry{}}
}

// Schedule implements Service.
func (s *HeapService) Schedule(at time.Time, fn func()) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	e := &heapEntry{id: s.nextID, at: at, fn: fn}
	heap.Push(&s.h, e)
	s.byID[e.id] = e
	return e.id
}

// Cancel implements Service. Cancellation is lazy: the entry is marked
// and skipped when it surfaces.
func (s *HeapService) Cancel(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok || e.cancelled {
		return false
	}
	e.cancelled = true
	delete(s.byID, id)
	return true
}

// Pending implements Service.
func (s *HeapService) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// AdvanceTo implements Service.
func (s *HeapService) AdvanceTo(now time.Time) int {
	var due []*heapEntry
	s.mu.Lock()
	for s.h.Len() > 0 {
		top := s.h[0]
		if top.at.After(now) {
			break
		}
		heap.Pop(&s.h)
		if top.cancelled {
			continue
		}
		delete(s.byID, top.id)
		due = append(due, top)
	}
	s.mu.Unlock()
	for _, e := range due {
		e.fn()
	}
	return len(due)
}
