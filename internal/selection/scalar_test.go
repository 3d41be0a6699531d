package selection

// The handle-at-a-time access paths — Figure 8's pseudo-code, literally: one
// Handles.Get / Attr / Unref and one meter call per object. They were the
// product's -batch 1 path until the batched operators took over at every
// batch size; they survive here as the reference the batched operators are
// compared against (TestBatchedSelectionsMatchScalar), the way
// cache/reflru_test.go keeps the old page LRU. The sorted variant's rid
// sort and prefetch schedule are the copy runIndexScan's were checked
// against.

import (
	"fmt"
	"sort"

	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/storage"
)

// rowFunc receives one matching row's projected values, tagged with the
// scan chunk that produced it (0 on the index paths). Full scans call it
// from one goroutine per chunk.
type rowFunc func(chunk int, vals []object.Value) error

// runScalar is Run over the reference access paths; onRow may be nil.
func runScalar(db *engine.Database, req Request, access Access, onRow rowFunc) (*Result, error) {
	cls := req.Extent.Class
	whereIdx := -1
	if !req.Where.IsAlways() {
		whereIdx = cls.AttrIndex(req.Where.Attr)
	}
	filterIdxs := make([]int, len(req.Filters))
	for i, f := range req.Filters {
		filterIdxs[i] = cls.AttrIndex(f.Attr)
	}
	projIdxs := make([]int, len(req.Projects))
	for i, a := range req.Projects {
		projIdxs[i] = cls.AttrIndex(a)
	}
	if access == FullScan {
		return scalarFullScan(db, req, whereIdx, filterIdxs, projIdxs, onRow)
	}
	return scalarIndexScan(db, req, filterIdxs, projIdxs, access == SortedIndexScan, onRow)
}

// scalarMatch evaluates the where (if any) and filter predicates against a
// handle.
func scalarMatch(db *engine.Database, h *object.Handle, req Request, whereIdx int, filterIdxs []int) (bool, error) {
	if whereIdx >= 0 {
		v, err := db.Handles.Attr(h, whereIdx)
		if err != nil {
			return false, err
		}
		db.Meter.Compare()
		if !req.Where.Eval(v.Int) {
			return false, nil
		}
	}
	for i, f := range req.Filters {
		v, err := db.Handles.Attr(h, filterIdxs[i])
		if err != nil {
			return false, err
		}
		db.Meter.Compare()
		if !f.Eval(v.Int) {
			return false, nil
		}
	}
	return true, nil
}

// scalarProject reads the projected attributes, charges the result append,
// and hands the values to the row callback if one is set.
func scalarProject(db *engine.Database, h *object.Handle, projIdxs []int, chunk int, onRow rowFunc) error {
	vals := make([]object.Value, 0, len(projIdxs))
	for _, pi := range projIdxs {
		v, err := db.Handles.Attr(h, pi)
		if err != nil {
			return err
		}
		vals = append(vals, v)
	}
	if len(projIdxs) > 0 {
		db.Meter.ResultAppend()
	}
	if onRow != nil {
		return onRow(chunk, vals)
	}
	return nil
}

// scalarFullScan creates and unreferences a Handle for every object in the
// collection, fanned out over the ScanChunks page ranges.
func scalarFullScan(db *engine.Database, req Request, whereIdx int, filterIdxs, projIdxs []int, onRow rowFunc) (*Result, error) {
	ranges := ScanChunks(req.Extent)
	res := &Result{Access: FullScan}
	rows := make([]int, len(ranges))
	err := db.RunChunks(len(ranges), func(w *engine.Session, c int) error {
		return req.Extent.File.ScanRange(w.Client, ranges[c].From, ranges[c].To, func(rid storage.Rid, rec []byte) (bool, error) {
			if !w.Classes.Belongs(object.ClassID(rec), req.Extent.Class) {
				return true, nil // shared file: other classes' objects
			}
			w.Meter.ScanNext()
			h, err := w.Handles.Get(rid)
			if err != nil {
				return false, err
			}
			defer w.Handles.Unref(h)
			ok, err := scalarMatch(w, h, req, whereIdx, filterIdxs)
			if err != nil {
				return false, err
			}
			if ok {
				if err := scalarProject(w, h, projIdxs, c, onRow); err != nil {
					return false, err
				}
				rows[c]++
			}
			return true, nil
		})
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

// scalarIndexScan creates Handles only for the selected elements, after
// the optional rid sort.
func scalarIndexScan(db *engine.Database, req Request, filterIdxs, projIdxs []int, sorted bool, onRow rowFunc) (*Result, error) {
	ix := db.IndexOn(req.Extent.Name, req.Where.Attr)
	if ix == nil {
		return nil, fmt.Errorf("selection: no index on %s.%s", req.Extent.Name, req.Where.Attr)
	}
	lo, hi, _ := req.Where.KeyRange()
	access := IndexScan
	if sorted {
		access = SortedIndexScan
	}
	res := &Result{Access: access}

	var rids []storage.Rid
	err := ix.Backend.Scan(db.Client, lo, hi, func(e index.Entry) (bool, error) {
		rids = append(rids, e.Rid)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if sorted {
		db.Meter.Sort(int64(len(rids)))
		sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
		res.SortedRids = len(rids)
	}
	// With sorted Rids the upcoming pages are known ahead of time: batch
	// their fetches into fewer RPCs when the pager supports it.
	var pf storage.Prefetcher
	batch := 1
	if sorted {
		if p, ok := storage.Pager(db.Client).(storage.Prefetcher); ok {
			if n := p.ReadAheadBatch(); n > 1 {
				pf, batch = p, n
			}
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
			}
		}
		h, err := db.Handles.Get(rid)
		if err != nil {
			return nil, err
		}
		// The index already enforced Where: only the filters run.
		ok, err := scalarMatch(db, h, req, -1, filterIdxs)
		if err == nil && ok {
			err = scalarProject(db, h, projIdxs, 0, onRow)
			res.Rows++
		}
		db.Handles.Unref(h)
		if err != nil {
			return nil, err
		}
	}
	res.Elapsed = db.Meter.Elapsed()
	res.Counters = db.Meter.Snapshot()
	return res, nil
}
