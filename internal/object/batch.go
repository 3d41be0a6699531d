package object

import (
	"fmt"

	"treebench/internal/storage"
)

// Batch is the carrier of the vectorized execution core: fixed-capacity,
// column-oriented slices over one run of scanned objects. Operators fill
// Rids/Recs/Classes while scanning, evaluate predicates into the Sel
// validity vector, and extract projected attributes into Cols — then add
// one sim.Counters delta covering the whole batch. The carrier never
// touches the shared handle table: batches are private to one scan chunk,
// so the "one structure per object in memory" discipline the table enforces
// is irrelevant to them (each object appears in exactly one batch).
type Batch struct {
	Rids    []storage.Rid
	Recs    [][]byte
	Classes []*Class
	// Sel is the validity selection vector, parallel to Rids: Sel[i]
	// reports that row i survived the batch's predicates.
	Sel []bool
	// Cols holds the extracted attribute value columns, parallel to Rids;
	// only rows with Sel[i] set carry meaningful values.
	Cols [][]Value

	cap int
}

// NewBatch returns a batch of the given capacity (records per batch).
func NewBatch(capacity int) *Batch {
	if capacity < 1 {
		capacity = 1
	}
	return &Batch{
		Rids:    make([]storage.Rid, 0, capacity),
		Recs:    make([][]byte, 0, capacity),
		Classes: make([]*Class, 0, capacity),
		cap:     capacity,
	}
}

// Len returns the number of buffered rows.
func (b *Batch) Len() int { return len(b.Rids) }

// Full reports whether the batch reached its capacity.
func (b *Batch) Full() bool { return len(b.Rids) >= b.cap }

// Cap returns the batch's capacity in records.
func (b *Batch) Cap() int { return b.cap }

// Reset empties the batch, keeping its capacity. It clears the record
// slices and classes it held, so a batch kept between queries holds no
// page buffer alive after the pool evicts the page.
func (b *Batch) Reset() {
	clear(b.Recs)
	clear(b.Classes)
	b.Rids = b.Rids[:0]
	b.Recs = b.Recs[:0]
	b.Classes = b.Classes[:0]
	b.Sel = b.Sel[:0]
	b.Cols = b.Cols[:0]
}

// Append buffers one scanned row. Record buffers are sub-slices of page
// buffers and stay valid across cache eviction, so holding them until the
// batch is next Reset is safe (handles pin them the same way). A batch
// outlives its rows — the session that lends it keeps it between
// queries — and Reset drops them, so the pin ends with the rows.
func (b *Batch) Append(rid storage.Rid, rec []byte, cls *Class) {
	b.Rids = append(b.Rids, rid)
	b.Recs = append(b.Recs, rec)
	b.Classes = append(b.Classes, cls)
}

// SetCols sizes Sel and n value columns to the batch's current length,
// reusing backing arrays where possible.
func (b *Batch) SetCols(n int) {
	rows := b.Len()
	if cap(b.Sel) < rows {
		b.Sel = make([]bool, rows)
	} else {
		b.Sel = b.Sel[:rows]
		for i := range b.Sel {
			b.Sel[i] = false
		}
	}
	// Reset truncated Cols to zero length; the columns of earlier batches
	// are still in its backing array, so re-slice before growing.
	b.Cols = b.Cols[:min(n, cap(b.Cols))]
	for len(b.Cols) < n {
		b.Cols = append(b.Cols, nil)
	}
	for j := range b.Cols {
		if cap(b.Cols[j]) < rows {
			b.Cols[j] = make([]Value, rows)
		} else {
			b.Cols[j] = b.Cols[j][:rows]
		}
	}
}

// Fetcher is the bulk record-materialization path of the vectorized
// operators (§4.4's bulk allocation, taken to its logical end): it reads
// records through the table's pager with exactly the page traffic a
// Table.Get per object generates, but materializes no shared handles.
//
// Run reuse: consecutive fetches from one page skip the redundant pager
// read. The skipped read is a guaranteed client-cache hit on the LRU front
// (the page was the last one read, and nothing moved since), so charging
// the hit counter and reusing the held buffer is byte-identical to
// performing it — hits are counter-only and moving the front entry to the
// front changes nothing. Callers MUST call Invalidate after any pager
// activity outside this fetcher (a prefetch, an index-leaf or collection
// chunk read): invalidating is always exact — the next fetch then performs
// the real read, just like Table.Get — while reusing across foreign reads
// would not be.
type Fetcher struct {
	t        *Table
	lastPage storage.PageID
	lastBuf  []byte
	ok       bool
}

// Fetcher returns a bulk record reader over the table's pager.
func (t *Table) Fetcher() *Fetcher { return &Fetcher{t: t} }

// Invalidate forgets the held page, forcing the next fetch to read.
func (f *Fetcher) Invalidate() { f.ok = false; f.lastBuf = nil }

// pageGet returns the record at (page, slot), reusing the held buffer for
// a repeat of the last fetched page and reading through the pager
// otherwise.
func (f *Fetcher) pageGet(page storage.PageID, slot uint16) (rec []byte, forwarded bool, err error) {
	if f.ok && page == f.lastPage {
		f.t.meter.ClientHit() // the skipped re-read, an LRU-front hit
	} else {
		buf, err := f.t.pager.Read(page)
		if err != nil {
			f.Invalidate()
			return nil, false, err
		}
		f.lastPage, f.lastBuf, f.ok = page, buf, true
	}
	return storage.LoadPage(f.lastBuf).Get(slot)
}

// record mirrors storage.Get, including the single-hop forwarding rule and
// its error texts, over the run-reusing page reader.
func (f *Fetcher) record(rid storage.Rid) ([]byte, error) {
	if rid.IsNil() {
		return nil, fmt.Errorf("%w: nil rid", storage.ErrNoRecord)
	}
	rec, forwarded, err := f.pageGet(rid.Page, rid.Slot)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rid, err)
	}
	if !forwarded {
		return rec, nil
	}
	target, err := storage.DecodeRid(rec)
	if err != nil {
		return nil, err
	}
	rec, forwarded, err = f.pageGet(target.Page, target.Slot)
	if err != nil {
		return nil, fmt.Errorf("%s→%s: %w", rid, target, err)
	}
	if forwarded {
		return nil, fmt.Errorf("storage: double forwarding at %s", rid)
	}
	return rec, nil
}

// Fetch returns the record and class at rid. Page traffic is charged
// through the pager (or the hit shortcut above); the caller accounts the
// per-object HandleGet/HandleUnref pair in its batch delta.
func (f *Fetcher) Fetch(rid storage.Rid) ([]byte, *Class, error) {
	rec, err := f.record(rid)
	if err != nil {
		return nil, nil, err
	}
	cls := f.t.classes.ByID(ClassID(rec))
	if cls == nil {
		return nil, nil, fmt.Errorf("object: record at %s has unknown class %d", rid, ClassID(rec))
	}
	return rec, cls, nil
}
