// Package index implements B+-tree indexes over integer keys, storing
// object Rids in the leaves ("both indexes are clustered and store only
// object identifiers in their leaves (i.e., no object properties)", §5).
//
// Index pages live on the same disk as data and are read through the same
// cache hierarchy, so an index scan pays I/O for the index structure itself
// — the effect §4.2 observes when an unclustered index reads more pages
// than a full scan. Whether an index is "clustered" is emergent: an index
// whose key order matches the collection's physical order (upin, mrn in
// class clustering) returns Rids sequentially; one on a random key (num)
// returns them scattered.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"treebench/internal/storage"
)

// Node layout. Index pages are raw (not slotted):
//
//	0      kind     byte (0 = leaf, 1 = internal)
//	1..3   count    uint16
//	4..8   next     PageID (leaves: right sibling; internal: unused)
//	8..16  reserved
//	16..   entries
//
// Leaf entry: key int64 + Rid = 16 bytes ⇒ 255 per leaf.
// Internal entry: key int64 + child PageID = 12 bytes, preceded by one
// leftmost child PageID at offset 16 ⇒ 255 separators.
const (
	nodeHeaderLen = 16
	leafEntryLen  = 8 + storage.EncodedRidLen
	innerEntryLen = 8 + 4

	// LeafFanout and InnerFanout are exported for the planners' cost
	// arithmetic.
	LeafFanout  = (storage.PageSize - nodeHeaderLen) / leafEntryLen
	InnerFanout = (storage.PageSize - nodeHeaderLen - 4) / innerEntryLen
)

// ErrEmpty is returned when operating on an index with no root.
var ErrEmpty = errors.New("index: empty")

// Entry is one (key, rid) pair.
type Entry struct {
	Key int64
	Rid storage.Rid
}

// Tree is a B+-tree rooted at a page. The zero Tree is invalid; use New or
// Build.
type Tree struct {
	ID   uint32
	Name string

	root   storage.PageID
	height int
	pages  int // page count, for reporting
	n      int // entry count
}

// Clone returns an independent copy of the tree's in-memory descriptor for
// a forked session. The node pages themselves live on the session's disk
// and are shared (or copied on write) there; only the root/size bookkeeping
// needs to be private per fork.
func (t *Tree) Clone() *Tree {
	c := *t
	return &c
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.n }

// Pages returns the number of pages the tree occupies.
func (t *Tree) Pages() int { return t.pages }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

func initNode(buf []byte, leaf bool) {
	for i := 0; i < nodeHeaderLen; i++ {
		buf[i] = 0
	}
	if leaf {
		buf[0] = 0
	} else {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint32(buf[4:8], uint32(storage.InvalidPage))
}

func isLeaf(buf []byte) bool     { return buf[0] == 0 }
func nodeCount(buf []byte) int   { return int(binary.LittleEndian.Uint16(buf[1:3])) }
func setCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[1:3], uint16(n)) }
func nextLeaf(buf []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(buf[4:8]))
}
func setNextLeaf(buf []byte, id storage.PageID) {
	binary.LittleEndian.PutUint32(buf[4:8], uint32(id))
}

func leafEntry(buf []byte, i int) Entry {
	off := nodeHeaderLen + i*leafEntryLen
	key := int64(binary.LittleEndian.Uint64(buf[off : off+8]))
	rid, _ := storage.DecodeRid(buf[off+8:])
	return Entry{Key: key, Rid: rid}
}

func setLeafEntry(buf []byte, i int, e Entry) {
	off := nodeHeaderLen + i*leafEntryLen
	binary.LittleEndian.PutUint64(buf[off:off+8], uint64(e.Key))
	e.Rid.Encode(buf[off+8 : off+8 : off+8+storage.EncodedRidLen])
}

// Internal node accessors. child(0) sits at offset 16; separator i and
// child(i+1) follow.
func innerChild(buf []byte, i int) storage.PageID {
	if i == 0 {
		return storage.PageID(binary.LittleEndian.Uint32(buf[nodeHeaderLen : nodeHeaderLen+4]))
	}
	off := nodeHeaderLen + 4 + (i-1)*innerEntryLen + 8
	return storage.PageID(binary.LittleEndian.Uint32(buf[off : off+4]))
}

func innerKey(buf []byte, i int) int64 {
	off := nodeHeaderLen + 4 + i*innerEntryLen
	return int64(binary.LittleEndian.Uint64(buf[off : off+8]))
}

func setInnerChild0(buf []byte, id storage.PageID) {
	binary.LittleEndian.PutUint32(buf[nodeHeaderLen:nodeHeaderLen+4], uint32(id))
}

func setInnerEntry(buf []byte, i int, key int64, child storage.PageID) {
	off := nodeHeaderLen + 4 + i*innerEntryLen
	binary.LittleEndian.PutUint64(buf[off:off+8], uint64(key))
	binary.LittleEndian.PutUint32(buf[off+8:off+12], uint32(child))
}

// Build bulk-loads a tree from entries (not necessarily sorted; they are
// sorted here). This is the "create the index once the collection is
// populated" path.
func Build(p storage.Pager, id uint32, name string, entries []Entry) (*Tree, error) {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].Rid.Less(sorted[j].Rid)
	})
	t := &Tree{ID: id, Name: name}

	// Fill leaves to ~90% so later inserts do not split immediately.
	perLeaf := LeafFanout * 9 / 10
	if perLeaf < 1 {
		perLeaf = 1
	}
	type levelNode struct {
		first int64
		page  storage.PageID
	}
	var leaves []levelNode
	var prevLeafBuf []byte
	for lo := 0; lo == 0 || lo < len(sorted); lo += perLeaf {
		hi := lo + perLeaf
		if hi > len(sorted) {
			hi = len(sorted)
		}
		id, buf, err := p.Alloc()
		if err != nil {
			return nil, err
		}
		initNode(buf, true)
		for i, e := range sorted[lo:hi] {
			setLeafEntry(buf, i, e)
		}
		setCount(buf, hi-lo)
		if prevLeafBuf != nil {
			setNextLeaf(prevLeafBuf, id)
		}
		if err := p.Write(id); err != nil {
			return nil, err
		}
		first := int64(0)
		if hi > lo {
			first = sorted[lo].Key
		}
		leaves = append(leaves, levelNode{first: first, page: id})
		prevLeafBuf = buf
		t.pages++
		if len(sorted) == 0 {
			break
		}
	}
	t.n = len(sorted)
	t.height = 1

	// Build internal levels bottom-up.
	level := leaves
	perInner := InnerFanout * 9 / 10
	if perInner < 2 {
		perInner = 2
	}
	for len(level) > 1 {
		var upper []levelNode
		for lo := 0; lo < len(level); lo += perInner {
			hi := lo + perInner
			if hi > len(level) {
				hi = len(level)
			}
			id, buf, err := p.Alloc()
			if err != nil {
				return nil, err
			}
			initNode(buf, false)
			group := level[lo:hi]
			setInnerChild0(buf, group[0].page)
			for i := 1; i < len(group); i++ {
				setInnerEntry(buf, i-1, group[i].first, group[i].page)
			}
			setCount(buf, len(group)-1)
			if err := p.Write(id); err != nil {
				return nil, err
			}
			upper = append(upper, levelNode{first: group[0].first, page: id})
			t.pages++
		}
		level = upper
		t.height++
	}
	t.root = level[0].page
	return t, nil
}

// findLeaf descends to the leftmost leaf that may contain key. Duplicate
// runs may straddle a split, leaving entries equal to a separator on its
// left side, so at an equal separator the descent goes left; the leaf chain
// covers the rest.
func (t *Tree) findLeaf(p storage.Pager, key int64) (storage.PageID, []byte, error) {
	id := t.root
	for {
		buf, err := p.Read(id)
		if err != nil {
			return 0, nil, err
		}
		if isLeaf(buf) {
			return id, buf, nil
		}
		n := nodeCount(buf)
		// Find first separator ≥ key; descend into the child before it.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if innerKey(buf, mid) < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		id = innerChild(buf, lo)
	}
}

// Scan visits entries with lo ≤ key < hi in key order. fn returning false
// stops the scan.
func (t *Tree) Scan(p storage.Pager, lo, hi int64, fn func(Entry) (bool, error)) error {
	if lo >= hi {
		return nil
	}
	id, buf, err := t.findLeaf(p, lo)
	if err != nil {
		return err
	}
	for {
		n := nodeCount(buf)
		for i := 0; i < n; i++ {
			e := leafEntry(buf, i)
			if e.Key < lo {
				continue
			}
			if e.Key >= hi {
				return nil
			}
			ok, err := fn(e)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		next := nextLeaf(buf)
		if next == storage.InvalidPage {
			return nil
		}
		id = next
		buf, err = p.Read(id)
		if err != nil {
			return err
		}
	}
}

// Lookup returns the rids stored under key.
func (t *Tree) Lookup(p storage.Pager, key int64) ([]storage.Rid, error) {
	var out []storage.Rid
	err := t.Scan(p, key, key+1, func(e Entry) (bool, error) {
		out = append(out, e.Rid)
		return true, nil
	})
	return out, err
}

// Insert adds one entry, splitting nodes as needed. Duplicate keys are
// allowed (indexes on non-unique attributes).
func (t *Tree) Insert(p storage.Pager, e Entry) error {
	if t.root == storage.InvalidPage {
		return ErrEmpty
	}
	promoted, newChild, err := t.insertInto(p, t.root, e)
	if err != nil {
		return err
	}
	if newChild != storage.InvalidPage {
		// Root split: grow the tree by one level.
		id, buf, err := p.Alloc()
		if err != nil {
			return err
		}
		initNode(buf, false)
		setInnerChild0(buf, t.root)
		setInnerEntry(buf, 0, promoted, newChild)
		setCount(buf, 1)
		if err := p.Write(id); err != nil {
			return err
		}
		t.root = id
		t.height++
		t.pages++
	}
	t.n++
	return nil
}

// insertInto inserts e under node id. If the node splits, it returns the
// promoted key and the new right sibling's page id; otherwise newChild is
// InvalidPage.
func (t *Tree) insertInto(p storage.Pager, id storage.PageID, e Entry) (promoted int64, newChild storage.PageID, err error) {
	buf, err := p.Read(id)
	if err != nil {
		return 0, storage.InvalidPage, err
	}
	if isLeaf(buf) {
		return t.insertLeaf(p, id, buf, e)
	}
	n := nodeCount(buf)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(buf, mid) <= e.Key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	childPromoted, childNew, err := t.insertInto(p, innerChild(buf, lo), e)
	if err != nil || childNew == storage.InvalidPage {
		return 0, storage.InvalidPage, err
	}
	// Insert (childPromoted, childNew) after position lo-1.
	if n < InnerFanout {
		for i := n; i > lo; i-- {
			k := innerKey(buf, i-1)
			c := innerChild(buf, i)
			setInnerEntry(buf, i, k, c)
		}
		setInnerEntry(buf, lo, childPromoted, childNew)
		setCount(buf, n+1)
		return 0, storage.InvalidPage, p.Write(id)
	}
	// Split the internal node.
	type ic struct {
		key   int64
		child storage.PageID
	}
	entries := make([]ic, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, ic{innerKey(buf, i), innerChild(buf, i+1)})
	}
	entries = append(entries[:lo], append([]ic{{childPromoted, childNew}}, entries[lo:]...)...)
	mid := len(entries) / 2
	up := entries[mid]

	rightID, rightBuf, err := p.Alloc()
	if err != nil {
		return 0, storage.InvalidPage, err
	}
	initNode(rightBuf, false)
	setInnerChild0(rightBuf, up.child)
	for i, en := range entries[mid+1:] {
		setInnerEntry(rightBuf, i, en.key, en.child)
	}
	setCount(rightBuf, len(entries)-mid-1)
	for i, en := range entries[:mid] {
		setInnerEntry(buf, i, en.key, en.child)
	}
	setCount(buf, mid)
	t.pages++
	if err := p.Write(id); err != nil {
		return 0, storage.InvalidPage, err
	}
	return up.key, rightID, p.Write(rightID)
}

func (t *Tree) insertLeaf(p storage.Pager, id storage.PageID, buf []byte, e Entry) (int64, storage.PageID, error) {
	n := nodeCount(buf)
	// Position by key (stable after equal keys).
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if leafEntry(buf, mid).Key <= e.Key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if n < LeafFanout {
		for i := n; i > lo; i-- {
			setLeafEntry(buf, i, leafEntry(buf, i-1))
		}
		setLeafEntry(buf, lo, e)
		setCount(buf, n+1)
		return 0, storage.InvalidPage, p.Write(id)
	}
	// Split the leaf.
	entries := make([]Entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, leafEntry(buf, i))
	}
	entries = append(entries[:lo], append([]Entry{e}, entries[lo:]...)...)
	mid := len(entries) / 2

	rightID, rightBuf, err := p.Alloc()
	if err != nil {
		return 0, storage.InvalidPage, err
	}
	initNode(rightBuf, true)
	for i, en := range entries[mid:] {
		setLeafEntry(rightBuf, i, en)
	}
	setCount(rightBuf, len(entries)-mid)
	setNextLeaf(rightBuf, nextLeaf(buf))
	for i, en := range entries[:mid] {
		setLeafEntry(buf, i, en)
	}
	setCount(buf, mid)
	setNextLeaf(buf, rightID)
	t.pages++
	if err := p.Write(id); err != nil {
		return 0, storage.InvalidPage, err
	}
	return entries[mid].Key, rightID, p.Write(rightID)
}

// MinKey returns the smallest key (ok=false if the tree is empty). It
// descends the leftmost spine, paying index-page reads like any access.
func (t *Tree) MinKey(p storage.Pager) (key int64, ok bool, err error) {
	id := t.root
	for {
		buf, err := p.Read(id)
		if err != nil {
			return 0, false, err
		}
		if isLeaf(buf) {
			// The leftmost leaf may be empty after deletions; follow the
			// chain.
			for nodeCount(buf) == 0 {
				next := nextLeaf(buf)
				if next == storage.InvalidPage {
					return 0, false, nil
				}
				buf, err = p.Read(next)
				if err != nil {
					return 0, false, err
				}
			}
			return leafEntry(buf, 0).Key, true, nil
		}
		id = innerChild(buf, 0)
	}
}

// MaxKey returns the largest key (ok=false if the tree is empty).
func (t *Tree) MaxKey(p storage.Pager) (key int64, ok bool, err error) {
	id := t.root
	for {
		buf, err := p.Read(id)
		if err != nil {
			return 0, false, err
		}
		if isLeaf(buf) {
			n := nodeCount(buf)
			if n == 0 {
				return 0, false, nil
			}
			return leafEntry(buf, n-1).Key, true, nil
		}
		id = innerChild(buf, nodeCount(buf))
	}
}

// Delete removes one entry matching (key, rid). It uses lazy deletion (no
// merging); index shrinkage is not a workload the paper exercises.
func (t *Tree) Delete(p storage.Pager, e Entry) (bool, error) {
	id, buf, err := t.findLeaf(p, e.Key)
	if err != nil {
		return false, err
	}
	for {
		n := nodeCount(buf)
		for i := 0; i < n; i++ {
			en := leafEntry(buf, i)
			if en.Key > e.Key {
				return false, nil
			}
			if en.Key == e.Key && en.Rid == e.Rid {
				for j := i; j < n-1; j++ {
					setLeafEntry(buf, j, leafEntry(buf, j+1))
				}
				setCount(buf, n-1)
				t.n--
				return true, p.Write(id)
			}
		}
		next := nextLeaf(buf)
		if next == storage.InvalidPage {
			return false, nil
		}
		id = next
		buf, err = p.Read(id)
		if err != nil {
			return false, err
		}
	}
}

// Validate walks the tree checking structural invariants: key ordering
// within and across leaves, separator consistency, and entry count. The
// separator invariant is the duplicate-tolerant one: keys left of a
// separator s satisfy key ≤ s, keys right of it satisfy key ≥ s. It is
// test/diagnostic support.
func (t *Tree) Validate(p storage.Pager) error {
	count := 0
	var last *int64
	var walk func(id storage.PageID, lo, hi *int64) error
	walk = func(id storage.PageID, lo, hi *int64) error {
		buf, err := p.Read(id)
		if err != nil {
			return err
		}
		if isLeaf(buf) {
			n := nodeCount(buf)
			for i := 0; i < n; i++ {
				k := leafEntry(buf, i).Key
				if lo != nil && k < *lo {
					return fmt.Errorf("index: key %d below separator %d", k, *lo)
				}
				if hi != nil && k > *hi {
					return fmt.Errorf("index: key %d above separator %d", k, *hi)
				}
				if last != nil && k < *last {
					return fmt.Errorf("index: keys out of order: %d after %d", k, *last)
				}
				kk := k
				last = &kk
				count++
			}
			return nil
		}
		n := nodeCount(buf)
		for i := 0; i <= n; i++ {
			var clo, chi *int64
			if i == 0 {
				clo = lo
			} else {
				k := innerKey(buf, i-1)
				clo = &k
			}
			if i == n {
				chi = hi
			} else {
				k := innerKey(buf, i)
				chi = &k
			}
			if err := walk(innerChild(buf, i), clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.n {
		return fmt.Errorf("index: tree holds %d entries, counter says %d", count, t.n)
	}
	return nil
}
