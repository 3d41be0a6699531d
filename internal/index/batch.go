package index

import "treebench/internal/storage"

// ScanBatched visits entries with lo ≤ key < hi in key order, delivering
// them in slices of at most cap(scratch) entries (minimum 1). A sub-batch
// never spans a leaf boundary, so every delivery happens while the leaf
// that produced it is the most recently read page, and before the next
// leaf is read: a consumer that fetches records per entry makes the same
// page reads, in the same order, at any batch size. The slice passed to fn
// is scratch, reused between calls — the caller's, like
// collection.ScanBatched's; fn returning false stops the scan.
//
// fn may tell the buffer pool that its reader holds no page buffer
// (engine.Session.Quiesce), so the scan holds none while fn runs: a
// delivery that ends a leaf is made once the scan is done reading it,
// and one that falls inside a leaf first copies the leaf and reads on from
// the copy. Deliveries at the default batch size end their leaf, so the
// copy is paid only by small batches.
func (t *Tree) ScanBatched(p storage.Pager, lo, hi int64, scratch []Entry, fn func([]Entry) (bool, error)) error {
	if lo >= hi {
		return nil
	}
	if cap(scratch) < 1 {
		scratch = make([]Entry, 0, 1)
	}
	_, buf, err := t.findLeaf(p, lo)
	if err != nil {
		return err
	}
	var own [storage.PageSize]byte // the current leaf, once a delivery falls inside it
	capacity, batch := cap(scratch), scratch[:0]
	for {
		n, next, copied := nodeCount(buf), nextLeaf(buf), false
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
				if i+1 < n && !copied {
					buf, copied = own[:copy(own[:], buf)], true
				}
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
		if next == storage.InvalidPage {
			return nil
		}
		if buf, err = p.Read(next); err != nil {
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
