package task

import "sort"

// itemLess is the worklist order: priority (desc), creation time, ID.
// All three are fixed at Create, so an item's position relative to any
// other never changes.
func itemLess(a, b *Item) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.Before(b.CreatedAt)
	}
	return a.ID < b.ID
}

// ordered is a set of a stripe's items kept in worklist order. Because
// the order key is immutable it holds the stripe's live *Item directly
// and finds an entry by binary search; every method runs under the
// stripe lock.
//
// The entries are buf[head:]. A worklist is consumed from the top and
// fed at the bottom, so neither end may cost a shift of the whole set:
// an entry is inserted or removed by moving whichever side of it is
// shorter, the prefix moving into or out of the free slots before head.
type ordered struct {
	buf  []*Item
	head int
}

func (o *ordered) len() int {
	if o == nil {
		return 0
	}
	return len(o.buf) - o.head
}

// search returns the position of the first entry not ordered before it.
func search(live []*Item, it *Item) int {
	return sort.Search(len(live), func(i int) bool { return !itemLess(live[i], it) })
}

// insert adds it, reporting false when it is already present.
func (o *ordered) insert(it *Item) bool {
	live := o.buf[o.head:]
	n := len(live)
	i := n
	// New items carry the latest creation time: at equal priority they
	// sort last and skip the search.
	if n > 0 && !itemLess(live[n-1], it) {
		i = search(live, it)
		if i < n && live[i] == it {
			return false
		}
	}
	if i < n-i && o.head > 0 {
		o.head--
		copy(o.buf[o.head:], live[:i])
		o.buf[o.head+i] = it
		return true
	}
	if len(o.buf) == cap(o.buf) && o.head >= len(o.buf)/2 {
		// Full, and at least half of it is free slots before head:
		// reclaim them instead of growing. head removals paid for the
		// copy of at most as many entries.
		n = copy(o.buf, live)
		clear(o.buf[n:])
		o.buf, o.head = o.buf[:n], 0
	}
	o.buf = append(o.buf, nil)
	live = o.buf[o.head:]
	copy(live[i+1:], live[i:])
	live[i] = it
	return true
}

// remove deletes it, reporting false when it is not present.
func (o *ordered) remove(it *Item) bool {
	if o == nil {
		return false
	}
	live := o.buf[o.head:]
	i := search(live, it)
	if i == len(live) || live[i] != it {
		return false
	}
	if last := len(live) - 1; i < last-i {
		copy(live[1:], live[:i])
		live[0] = nil
		o.head++
	} else {
		copy(live[i:], live[i+1:])
		live[last] = nil
		o.buf = o.buf[:len(o.buf)-1]
	}
	if o.head == len(o.buf) {
		o.buf, o.head = o.buf[:0], 0
	}
	return true
}

// page returns clones of entries offset..offset+limit (limit < 0 = to
// the end) of the entries that satisfy pred (nil = all of them), in
// order, and nil when there are none. The walk stops at the last entry
// returned, and only returned entries are cloned — in one block.
func (o *ordered) page(offset, limit int, pred func(*Item) bool) []*Item {
	n := o.len() - offset
	if limit >= 0 && limit < n {
		n = limit
	}
	if n <= 0 {
		return nil
	}
	live := o.buf[o.head:]
	if pred == nil {
		live, offset = live[offset:], 0
	}
	out := make([]*Item, 0, n)
	for _, it := range live {
		if pred != nil && !pred(it) {
			continue
		}
		if offset > 0 {
			offset--
			continue
		}
		if out = append(out, it); len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		return nil
	}
	clones := make([]Item, len(out))
	for i, it := range out {
		it.copyTo(&clones[i])
		out[i] = &clones[i]
	}
	return out
}
