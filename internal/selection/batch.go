// Vectorized access paths: the same three §4.2 operators, restructured
// around batches of records instead of one handle at a time. Each batch
// evaluates predicates into a selection vector, extracts projected
// attributes into value columns, and merges ONE accumulated sim delta where
// the scalar loop charged per object — so the simulated counters, tables,
// and meters are byte-identical to the scalar path at every batch size,
// while the wall-clock constant per object (handle churn, interface
// dispatch, one meter call per charge) is amortized across the batch.
package selection

import (
	"sort"

	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// evalBatch runs the predicate and projection phases over one filled batch:
// Sel[i] is set for surviving rows, Cols holds the projected value columns
// compacted to the selected rows (in selection order), and every AttrGet /
// Compare / ResultAppend the scalar match+project pair would have charged is
// accumulated into ch. It returns the number of selected rows.
func evalBatch(b *object.Batch, req Request, whereIdx int, filterIdxs, projIdxs []int, ch *sim.BatchCharges) (int, error) {
	n := b.Len()
	b.SetCols(len(projIdxs))
	selected := 0
	for i := 0; i < n; i++ {
		cls, rec := b.Classes[i], b.Recs[i]
		// Predicates short-circuit exactly like the scalar match():
		// one AttrGet+Compare per predicate actually evaluated.
		if whereIdx >= 0 {
			v, err := object.DecodeAttr(cls, rec, whereIdx)
			if err != nil {
				return 0, err
			}
			ch.AttrGets++
			ch.Compares++
			if !req.Where.Eval(v.Int) {
				continue
			}
		}
		ok := true
		for fi, f := range req.Filters {
			v, err := object.DecodeAttr(cls, rec, filterIdxs[fi])
			if err != nil {
				return 0, err
			}
			ch.AttrGets++
			ch.Compares++
			if !f.Eval(v.Int) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		b.Sel[i] = true
		for j, pi := range projIdxs {
			v, err := object.DecodeAttr(cls, rec, pi)
			if err != nil {
				return 0, err
			}
			ch.AttrGets++
			b.Cols[j][selected] = v
		}
		selected++
	}
	if len(projIdxs) > 0 {
		ch.ResultAppends += int64(selected)
	}
	for j := range b.Cols {
		b.Cols[j] = b.Cols[j][:selected]
	}
	return selected, nil
}

// deliverBatch hands a batch's selected rows to the request's callback:
// whole columns through OnBatch when set, otherwise row by row through the
// scalar callbacks (vals rebuilt per row, as project() builds them).
func deliverBatch(b *object.Batch, req Request, nProj, selected, chunk int) error {
	if selected == 0 {
		return nil
	}
	if req.OnBatch != nil {
		return req.OnBatch(chunk, b.Cols, selected)
	}
	if req.OnRowChunk == nil && req.OnRow == nil {
		return nil
	}
	vals := make([]object.Value, nProj)
	for i := 0; i < selected; i++ {
		for j := 0; j < nProj; j++ {
			vals[j] = b.Cols[j][i]
		}
		if req.OnRowChunk != nil {
			if err := req.OnRowChunk(chunk, vals); err != nil {
				return err
			}
		} else if err := req.OnRow(vals); err != nil {
			return err
		}
	}
	return nil
}

// runFullScanBatched is the vectorized Figure 8 left column. Member records
// are captured straight from the scan callback (record buffers outlive
// their page's cache residency), so the batch performs zero page re-reads;
// the scalar loop's per-object handle materialization re-read the page it
// was already holding — a guaranteed client-cache hit — which the batch
// accounts as ClientHits in its merged delta. Per member object the charge
// multiset is identical to the scalar path: ScanNext, the re-read hit,
// HandleGet, short-circuited AttrGet+Compare per predicate, AttrGet per
// projection plus ResultAppend for matches, HandleUnref.
func runFullScanBatched(db *engine.Database, req Request, whereIdx int, filterIdxs, projIdxs []int, ranges []engine.PageRange) (*Result, error) {
	res := &Result{Access: FullScan}
	rows := make([]int, len(ranges))
	bsize := db.Batch()
	err := db.RunChunks(len(ranges), func(w *engine.Session, c int) error {
		b := object.NewBatch(bsize)
		flush := func() error {
			n := b.Len()
			if n == 0 {
				return nil
			}
			ch := sim.BatchCharges{
				ScanNexts:    int64(n),
				ClientHits:   int64(n),
				HandleGets:   int64(n),
				HandleUnrefs: int64(n),
			}
			selected, err := evalBatch(b, req, whereIdx, filterIdxs, projIdxs, &ch)
			if err != nil {
				return err
			}
			w.Meter.ChargeBatch(ch)
			rows[c] += selected
			err = deliverBatch(b, req, len(projIdxs), selected, c)
			b.Reset()
			return err
		}
		err := req.Extent.File.ScanRange(w.Client, ranges[c].From, ranges[c].To, func(rid storage.Rid, rec []byte) (bool, error) {
			cls := w.Classes.ByID(object.ClassID(rec))
			if cls == nil || !cls.IsSubclassOf(req.Extent.Class) {
				return true, nil // shared file: other classes' objects
			}
			b.Append(rid, rec, cls)
			if b.Full() {
				return true, flush()
			}
			return true, nil
		})
		if err != nil {
			return err
		}
		return flush()
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		res.Rows += r
	}
	res.Elapsed = db.Meter.Elapsed()
	res.Counters = db.Meter.Snapshot()
	return res, nil
}

// runIndexScanBatched is the vectorized Figure 8 right column. The rid
// gather, the optional sort, and the sorted variant's position-driven
// prefetch schedule are byte-identical to the scalar loop; record fetches
// go through an object.Fetcher whose page-run reuse charges the same
// client-cache hits the scalar per-object reads produced, and the fetcher
// is invalidated whenever a prefetch touches the pager in between.
func runIndexScanBatched(db *engine.Database, req Request, filterIdxs, projIdxs []int, sorted bool, res *Result, rids []storage.Rid) (*Result, error) {
	if sorted {
		db.Meter.Sort(int64(len(rids)))
		sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
		res.SortedRids = len(rids)
	}
	var pf storage.Prefetcher
	batch := 1
	if sorted {
		if p, ok := storage.Pager(db.Client).(storage.Prefetcher); ok && p.ReadAheadBatch() > 1 {
			pf = p
			batch = p.ReadAheadBatch()
		}
	}
	var pages []storage.PageID
	if pf != nil {
		for _, rid := range rids {
			if len(pages) == 0 || pages[len(pages)-1] != rid.Page {
				pages = append(pages, rid.Page)
			}
		}
	}

	bsize := db.Batch()
	b := object.NewBatch(bsize)
	f := db.Handles.Fetcher()
	flush := func() error {
		n := b.Len()
		if n == 0 {
			return nil
		}
		ch := sim.BatchCharges{HandleGets: int64(n), HandleUnrefs: int64(n)}
		// The index already enforced Where (whereIdx -1): only the
		// filters run per fetched record, as in the scalar loop.
		selected, err := evalBatch(b, req, -1, filterIdxs, projIdxs, &ch)
		if err != nil {
			return err
		}
		db.Meter.ChargeBatch(ch)
		res.Rows += selected
		err = deliverBatch(b, req, len(projIdxs), selected, 0)
		b.Reset()
		return err
	}
	pageIdx, nextPrefetch := 0, 0
	for _, rid := range rids {
		if pf != nil {
			for pageIdx < len(pages) && pages[pageIdx] != rid.Page {
				pageIdx++
			}
			if pageIdx >= nextPrefetch {
				hi := pageIdx + batch
				if hi > len(pages) {
					hi = len(pages)
				}
				pf.Prefetch(pages[pageIdx:hi])
				nextPrefetch = hi
				// The prefetch read pages through the pager: the held
				// page is no longer the last one read.
				f.Invalidate()
			}
		}
		rec, cls, err := f.Fetch(rid)
		if err != nil {
			return nil, err
		}
		b.Append(rid, rec, cls)
		if b.Full() {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	res.Elapsed = db.Meter.Elapsed()
	res.Counters = db.Meter.Snapshot()
	return res, nil
}
