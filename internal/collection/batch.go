package collection

import "treebench/internal/storage"

// ScanBatched visits the collection's elements in insertion order,
// delivered in slices of at most cap(scratch) rids (minimum 1). Page
// traffic is identical to Scan: one record read per chunk, and a sub-batch
// never spans a chunk boundary, so each delivery happens with no pager
// activity since its chunk's read. The slice passed to fn is scratch,
// reused between calls — an operator that walks one collection per parent
// object passes the same scratch to every walk; fn returning false stops
// the scan.
func ScanBatched(p storage.Pager, head storage.Rid, scratch []storage.Rid, fn func([]storage.Rid) (bool, error)) error {
	if cap(scratch) < 1 {
		scratch = make([]storage.Rid, 0, 1)
	}
	capacity, batch := cap(scratch), scratch[:0]
	for cur := head; !cur.IsNil(); {
		rec, err := storage.Get(p, cur)
		if err != nil {
			return err
		}
		next, elems, err := decodeChunk(rec)
		if err != nil {
			return err
		}
		for off := 0; off < len(elems); off += storage.EncodedRidLen {
			r, err := storage.DecodeRid(elems[off:])
			if err != nil {
				return err
			}
			batch = append(batch, r)
			if len(batch) >= capacity {
				ok, err := fn(batch)
				if err != nil || !ok {
					return err
				}
				batch = batch[:0]
			}
		}
		// Chunk boundary: flush before the next chunk's record read.
		if len(batch) > 0 {
			ok, err := fn(batch)
			if err != nil || !ok {
				return err
			}
			batch = batch[:0]
		}
		cur = next
	}
	return nil
}
