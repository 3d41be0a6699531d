package cache

import "treebench/internal/storage"

// refLRU is the pointer-linked page LRU the slab LRU replaced (one heap
// node and one heap entry per admitted page), kept verbatim in behaviour as
// the oracle TestPageLRUMatchesReference replays seeded traces against:
// hit/miss, eviction order and dirty write-back order must not move.
type refLRU struct {
	capacity   int
	entries    map[storage.PageID]*refNode
	head, tail *refNode // head = most recently used
}

type refEntry struct {
	id    storage.PageID
	dirty bool
}

type refNode struct {
	val        *refEntry
	prev, next *refNode
}

func newRefLRU(capacity int) *refLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &refLRU{capacity: capacity, entries: make(map[storage.PageID]*refNode, capacity)}
}

func (l *refLRU) get(id storage.PageID) *refEntry {
	n := l.entries[id]
	if n == nil {
		return nil
	}
	l.moveToFront(n)
	return n.val
}

func (l *refLRU) peek(id storage.PageID) *refEntry {
	if n := l.entries[id]; n != nil {
		return n.val
	}
	return nil
}

// put inserts a page, evicting the LRU entry (returned, nil if none) when
// full; re-putting a resident page ORs the dirty bit and touches recency.
func (l *refLRU) put(id storage.PageID, dirty bool) (evicted *refEntry) {
	if n := l.entries[id]; n != nil {
		n.val.dirty = n.val.dirty || dirty
		l.moveToFront(n)
		return nil
	}
	if len(l.entries) >= l.capacity {
		ev := l.tail
		l.remove(ev)
		evicted = ev.val
	}
	n := &refNode{val: &refEntry{id: id, dirty: dirty}}
	l.pushFront(n)
	l.entries[id] = n
	return evicted
}

func (l *refLRU) each(fn func(*refEntry)) {
	for n := l.tail; n != nil; n = n.prev {
		fn(n.val)
	}
}

func (l *refLRU) drain() []*refEntry {
	out := make([]*refEntry, 0, len(l.entries))
	for l.tail != nil {
		n := l.tail
		l.remove(n)
		out = append(out, n.val)
	}
	return out
}

func (l *refLRU) remove(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
	delete(l.entries, n.val.id)
}

func (l *refLRU) pushFront(n *refNode) {
	n.next = l.head
	n.prev = nil
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *refLRU) moveToFront(n *refNode) {
	if l.head == n {
		return
	}
	l.remove(n)
	l.pushFront(n)
	l.entries[n.val.id] = n
}
