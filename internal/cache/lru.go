package cache

import "math"

// LRU is a generic fixed-capacity least-recently-used map: the residency
// index of both page caches (key = page id, value = dirty bit) and the
// query-plan cache in internal/oql. Nodes live in one slab linked by int32
// indices — an insert appends to the slab or, once the cache is full,
// takes over the evicted node's slot; it is never a heap object of its own
// — and Drain empties index and slab but keeps their capacity. Nothing is
// sized to the capacity up front. A page cache that is refilled after
// every cold restart therefore allocates while it grows to its largest
// working set and not afterwards, and one that is never used costs a
// struct and an empty map.
//
// Not safe for concurrent use on its own; wrap it in a lock when callers
// share it (cache.Server, oql.PlanCache).
type LRU[K comparable, V any] struct {
	capacity   int
	index      map[K]int32
	nodes      []lruNode[K, V] // len(nodes) == len(index): slots are only freed by eviction (reused at once) and Drain
	head, tail int32           // most and least recently used; none when empty
}

const none int32 = -1

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// NewLRU returns an empty LRU holding at most capacity entries (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	capacity = min(max(capacity, 1), math.MaxInt32)
	return &LRU[K, V]{capacity: capacity, index: make(map[K]int32), head: none, tail: none}
}

// Get returns the value for k and marks it most recently used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	i, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.touch(i)
	return l.nodes[i].val, true
}

// Peek returns a pointer to k's value, nil when k is absent, without
// touching recency. The pointer is into the slab: it is valid until the
// next Put or Drain.
func (l *LRU[K, V]) Peek(k K) *V {
	if i, ok := l.index[k]; ok {
		return &l.nodes[i].val
	}
	return nil
}

// Put inserts or replaces k's value and marks it most recently used. When
// the insert evicts the least recently used entry, its key and value are
// returned with evicted == true so the caller can dispose of it (the page
// caches flush dirty pages down a level).
func (l *LRU[K, V]) Put(k K, v V) (evKey K, evVal V, evicted bool) {
	if i, ok := l.index[k]; ok {
		l.nodes[i].val = v
		l.touch(i)
		return
	}
	var i int32
	if len(l.nodes) >= l.capacity {
		i = l.tail
		evKey, evVal, evicted = l.nodes[i].key, l.nodes[i].val, true
		delete(l.index, evKey)
		l.unlink(i)
		l.nodes[i].key, l.nodes[i].val = k, v
	} else {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, lruNode[K, V]{key: k, val: v})
	}
	l.pushFront(i)
	l.index[k] = i
	return
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.nodes) }

// Each calls fn on every entry, least recently used first, without
// touching recency. fn may change the value in place; it must not add or
// remove entries.
func (l *LRU[K, V]) Each(fn func(K, *V)) {
	for i := l.tail; i != none; i = l.nodes[i].prev {
		fn(l.nodes[i].key, &l.nodes[i].val)
	}
}

// Drain visits every entry like Each and then empties the LRU, keeping
// the capacity of its index and slab for the refill.
func (l *LRU[K, V]) Drain(fn func(K, *V)) {
	l.Each(fn)
	clear(l.index)
	clear(l.nodes) // drop the references values may hold
	l.nodes = l.nodes[:0]
	l.head, l.tail = none, none
}

func (l *LRU[K, V]) touch(i int32) {
	if l.head != i {
		l.unlink(i)
		l.pushFront(i)
	}
}

func (l *LRU[K, V]) unlink(i int32) {
	n := &l.nodes[i]
	if n.prev != none {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != none {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
}

func (l *LRU[K, V]) pushFront(i int32) {
	n := &l.nodes[i]
	n.prev, n.next = none, l.head
	if l.head != none {
		l.nodes[l.head].prev = i
	}
	l.head = i
	if l.tail == none {
		l.tail = i
	}
}
