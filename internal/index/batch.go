package index

import "treebench/internal/storage"

// ScanBatched visits entries with lo ≤ key < hi in key order, delivering
// them in slices of at most cap(scratch) entries (minimum 1). It performs
// exactly the page reads Scan performs, in the same order: a sub-batch
// never spans a leaf boundary, so every delivery happens while the leaf
// that produced it is the most recently read page — batched consumers rely
// on that to keep their record-fetch traffic identical to a per-entry
// Scan's. The slice passed to fn is scratch, reused between calls — the
// caller's, like collection.ScanBatched's; fn returning false stops the
// scan.
func (t *Tree) ScanBatched(p storage.Pager, lo, hi int64, scratch []Entry, fn func([]Entry) (bool, error)) error {
	if lo >= hi {
		return nil
	}
	if cap(scratch) < 1 {
		scratch = make([]Entry, 0, 1)
	}
	id, buf, err := t.findLeaf(p, lo)
	if err != nil {
		return err
	}
	capacity, batch := cap(scratch), scratch[:0]
	for {
		n := nodeCount(buf)
		for i := 0; i < n; i++ {
			e := leafEntry(buf, i)
			if e.Key < lo {
				continue
			}
			if e.Key >= hi {
				return flushEntries(batch, fn)
			}
			batch = append(batch, e)
			if len(batch) >= capacity {
				ok, err := fn(batch)
				if err != nil || !ok {
					return err
				}
				batch = batch[:0]
			}
		}
		// Leaf boundary: deliver what this leaf produced before the next
		// leaf read replaces the current page at the cache front.
		if len(batch) > 0 {
			ok, err := fn(batch)
			if err != nil || !ok {
				return err
			}
			batch = batch[:0]
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

func flushEntries(batch []Entry, fn func([]Entry) (bool, error)) error {
	if len(batch) == 0 {
		return nil
	}
	_, err := fn(batch)
	return err
}
