// Package selection implements the three access paths of the §4.2
// experiments (Figure 8): the standard full scan, the plain (unsorted)
// index scan whose random fetches can read a page many times, and the
// sorted index scan that sorts the matching Rids into physical order before
// fetching — the optimization that "exceeded our expectations by far".
package selection

import (
	"fmt"
	"sort"
	"time"

	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Access names one access path.
type Access string

// The §4.2 access paths.
const (
	FullScan        Access = "scan"
	IndexScan       Access = "index"
	SortedIndexScan Access = "index+sort"
)

// Op is a comparison operator.
type Op string

// Comparison operators over integer attributes.
const (
	Lt Op = "<"
	Le Op = "<="
	Gt Op = ">"
	Ge Op = ">="
	Eq Op = "="
	Ne Op = "!="
)

// Pred is a predicate `attr op k` over an integer attribute.
type Pred struct {
	Attr string
	Op   Op
	K    int64
}

// Eval applies the predicate to a value.
func (p Pred) Eval(v int64) bool {
	switch p.Op {
	case Lt:
		return v < p.K
	case Le:
		return v <= p.K
	case Gt:
		return v > p.K
	case Ge:
		return v >= p.K
	case Eq:
		return v == p.K
	case Ne:
		return v != p.K
	default:
		return false
	}
}

// Always is the empty predicate, true for every object (an unqualified
// scan). Only FullScan accepts it.
var Always = Pred{}

// IsAlways reports whether the predicate is the empty always-true one.
func (p Pred) IsAlways() bool { return p == Always }

// KeyRange converts the predicate to a [lo, hi) index range.
func (p Pred) KeyRange() (lo, hi int64, ok bool) {
	const (
		minKey = -1 << 62
		maxKey = 1 << 62
	)
	switch p.Op {
	case Lt:
		return minKey, p.K, true
	case Le:
		return minKey, p.K + 1, true
	case Gt:
		return p.K + 1, maxKey, true
	case Ge:
		return p.K, maxKey, true
	case Eq:
		return p.K, p.K + 1, true
	default:
		return 0, 0, false
	}
}

// Request is one selection query: project attributes of the extent's
// objects matching the predicates. Where drives the access path (it is the
// indexable predicate); Filters are evaluated on each fetched object.
// An empty Projects counts matches without building a result.
type Request struct {
	Extent   *engine.Extent
	Where    Pred
	Filters  []Pred
	Projects []string
	// OnBatch, when set, receives every matching object's projected values
	// (under Keep, every kept one's; the executor's hook for aggregation and
	// sampling): cols[j][0:n] are the value columns of one batch's n
	// selected rows, in row order within the batch. Full scans fan out over
	// ScanChunks(extent) page ranges and tag each delivery with its chunk;
	// chunks cover the file in order and batches within one chunk arrive in
	// scan order, so concatenating per-chunk state in chunk-index order
	// reproduces the sequential row order. Index scans deliver every row as
	// chunk 0. It may be called from multiple goroutines, one per chunk —
	// keep state per chunk — and the columns are reused after it returns.
	OnBatch func(chunk int, cols [][]object.Value, n int) error
	// Keep, when set, is asked for every selected row, in scan order within
	// its chunk, whether the consumer will keep it: OnBatch then receives
	// only the kept rows, and the other rows' projected values are checked
	// (object.CheckAttr) but never decoded. Key is the position within
	// Projects of the value Keep is handed, decoded for every selected row
	// (an order-by key); -1 hands it the zero Value. The simulated charges
	// are those of a run without Keep.
	Keep func(chunk int, key object.Value) bool
	Key  int
}

// ScanChunks returns the page-range decomposition a parallel full scan of
// the extent uses: a pure function of the extent's size, so per-chunk
// accounting is identical at any worker count. Executors size their
// per-chunk state from its length; a single range means the scan runs
// sequentially.
func ScanChunks(e *engine.Extent) []engine.PageRange {
	return e.Partition(engine.ChunksForWork(int64(e.Count)))
}

// Result reports one run.
type Result struct {
	Access   Access
	Rows     int
	Elapsed  time.Duration
	Counters sim.Counters
	// SortedRids is the number of Rids sorted (SortedIndexScan only).
	SortedRids int
}

// Run evaluates the selection with the given access path on the session's
// current (typically cold) caches.
func Run(db *engine.Database, req Request, access Access) (*Result, error) {
	cls := req.Extent.Class
	whereIdx := -1
	if !req.Where.IsAlways() {
		whereIdx = cls.AttrIndex(req.Where.Attr)
		if whereIdx < 0 {
			return nil, fmt.Errorf("selection: no attribute %s.%s", cls.Name, req.Where.Attr)
		}
	}
	filterIdxs := make([]int, len(req.Filters))
	for i, f := range req.Filters {
		filterIdxs[i] = cls.AttrIndex(f.Attr)
		if filterIdxs[i] < 0 {
			return nil, fmt.Errorf("selection: no attribute %s.%s", cls.Name, f.Attr)
		}
	}
	projIdxs := make([]int, len(req.Projects))
	for i, a := range req.Projects {
		projIdxs[i] = cls.AttrIndex(a)
		if projIdxs[i] < 0 {
			return nil, fmt.Errorf("selection: no attribute %s.%s", cls.Name, a)
		}
	}
	switch access {
	case FullScan:
		return runFullScan(db, req, whereIdx, filterIdxs, projIdxs)
	case IndexScan, SortedIndexScan:
		if req.Where.IsAlways() {
			return nil, fmt.Errorf("selection: index scan needs a predicate")
		}
		return runIndexScan(db, req, filterIdxs, projIdxs, access == SortedIndexScan)
	default:
		return nil, fmt.Errorf("selection: unknown access path %q", access)
	}
}

// evalBatch runs the predicate and projection phases over one filled batch:
// Sel[i] is set for surviving rows, Cols holds the projected value columns
// compacted to the rows the request keeps (in selection order), and every
// AttrGet / Compare / ResultAppend a handle-at-a-time loop would charge is
// accumulated into ch. It returns the number of selected and of kept rows.
func evalBatch(b *object.Batch, req Request, whereIdx int, filterIdxs, projIdxs []int, chunk int, ch *sim.Counters) (selected, kept int, err error) {
	n := b.Len()
	b.SetCols(len(projIdxs))
	key := -1
	if req.Keep != nil {
		key = req.Key
	}
	for i := 0; i < n; i++ {
		cls, rec := b.Classes[i], b.Recs[i]
		// Predicates short-circuit: one AttrGet+Compare per predicate
		// actually evaluated.
		if whereIdx >= 0 {
			v, err := object.DecodeAttr(cls, rec, whereIdx)
			if err != nil {
				return 0, 0, err
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
				return 0, 0, err
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
		selected++
		ch.AttrGets += int64(len(projIdxs))
		var kv object.Value
		if key >= 0 {
			if kv, err = object.DecodeAttr(cls, rec, projIdxs[key]); err != nil {
				return 0, 0, err
			}
		}
		if req.Keep != nil && !req.Keep(chunk, kv) {
			for _, pi := range projIdxs {
				if err := object.CheckAttr(cls, rec, pi); err != nil {
					return 0, 0, err
				}
			}
			continue
		}
		for j, pi := range projIdxs {
			v := kv
			if j != key {
				if v, err = object.DecodeAttr(cls, rec, pi); err != nil {
					return 0, 0, err
				}
			}
			b.Cols[j][kept] = v
		}
		kept++
	}
	if len(projIdxs) > 0 {
		ch.ResultAppends += int64(selected)
	}
	for j := range b.Cols {
		b.Cols[j] = b.Cols[j][:kept]
	}
	return selected, kept, nil
}

// flushBatch evaluates one filled batch, merges ch — the caller's per-record
// charges plus what evalBatch adds — into w's meter as ONE delta, hands the
// selected rows to the request's callback and empties the batch. It returns
// the number of selected rows, or stops the scan at w's deadline.
func flushBatch(w *engine.Session, b *object.Batch, req Request, whereIdx int, filterIdxs, projIdxs []int, ch sim.Counters, chunk int) (int, error) {
	if err := w.Err(); err != nil {
		return 0, err
	}
	selected, kept, err := evalBatch(b, req, whereIdx, filterIdxs, projIdxs, chunk, &ch)
	if err != nil {
		return 0, err
	}
	w.Meter.N.Add(ch)
	if kept > 0 && req.OnBatch != nil {
		err = req.OnBatch(chunk, b.Cols, kept)
	}
	b.Reset()
	return selected, err
}

// runFullScan is Figure 8's left column:
//
//	open scan on Patients
//	for each Rid r returned by the scan
//	  get Handle h
//	  if get_att(h, num) > k add get_att(h, age) to the result
//	  unreference h
//
// The scan pays for a Handle got and unreferenced for every object in the
// collection — the §4.3 cost the sorted index scan avoids — and fans out
// over the ScanChunks page ranges.
//
// It runs over batches of db.Batch() records; each chunk fills the batch
// its session lends (engine.Session.Borrow). Member records are captured
// straight from the scan callback (record buffers outlive their page's cache
// residency), so a batch performs zero page re-reads; materializing a handle
// per object would re-read the page the scan is already holding — a
// guaranteed client-cache hit — which the batch accounts as ClientHits in
// its merged delta. Per member object the charge multiset is that of the
// pseudo-code: ScanNext, the re-read hit, HandleGet, short-circuited
// AttrGet+Compare per predicate, AttrGet per projection plus ResultAppend
// for matches, HandleUnref.
func runFullScan(db *engine.Database, req Request, whereIdx int, filterIdxs, projIdxs []int) (*Result, error) {
	ranges := ScanChunks(req.Extent)
	res := &Result{Access: FullScan}
	rows := make([]int, len(ranges))
	err := db.RunChunks(len(ranges), func(w *engine.Session, c int) error {
		sc := w.Borrow()
		defer w.Return(sc)
		b := sc.Batch
		flush := func() error {
			n := int64(b.Len())
			if n == 0 {
				return nil
			}
			// ClientHits stands in for the page re-reads the batch skips: a
			// handle-at-a-time loop re-reads the page it is already holding
			// (a guaranteed client-cache hit on the LRU front, which counts
			// the hit and moves nothing), so skipping the read and counting
			// the hit is exact.
			ch := sim.Counters{ScanNexts: n, ClientHits: n, HandleGets: n, HandleUnrefs: n}
			selected, err := flushBatch(w, b, req, whereIdx, filterIdxs, projIdxs, ch, c)
			rows[c] += selected
			return err
		}
		onPage := 0 // rows the current page added to the batch
		err := req.Extent.File.ScanRange(w.Client, ranges[c].From, ranges[c].To, func(rid storage.Rid, rec []byte) (bool, error) {
			cls := w.Classes.ByID(object.ClassID(rec))
			if cls == nil || !cls.IsSubclassOf(req.Extent.Class) {
				return true, nil // shared file: other classes' objects
			}
			b.Append(rid, rec, cls)
			onPage++
			if b.Full() {
				return true, flush()
			}
			return true, nil
		}, func() error {
			// Quiescent point. Between pages the scan holds no page
			// buffer. When a next page like this one would overflow the
			// batch, the batch is flushed now, and then the chunk holds
			// none either. The rows are the same; only where a batch
			// ends moves, and no number depends on that.
			n := onPage
			onPage = 0
			if b.Len() == 0 || b.Len()+n <= b.Cap() {
				return nil
			}
			if err := flush(); err != nil {
				return err
			}
			w.Quiesce()
			return nil
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

// runIndexScan is Figure 8's right column, with and without the
// preliminary sort of the Rids returned by the index:
//
//	open index scan on (Patients, num > k)
//	for each Rid r returned by the index scan add r to Table T
//	sort T on Rids                              /* sorted variant only */
//	for each r in T
//	  get Handle h; add get_att(h, age) to the result; unreference h
//
// Handles are paid for only for the selected elements. Table T and the
// batch are the session's scratch (engine.Session.Borrow). Record fetches go
// through an object.Fetcher whose page-run reuse charges the client-cache
// hits per-object reads would produce; the fetcher is invalidated whenever a
// prefetch touches the pager in between.
func runIndexScan(db *engine.Database, req Request, filterIdxs, projIdxs []int, sorted bool) (*Result, error) {
	ix := db.IndexOn(req.Extent.Name, req.Where.Attr)
	if ix == nil {
		return nil, fmt.Errorf("selection: no index on %s.%s", req.Extent.Name, req.Where.Attr)
	}
	lo, hi, ok := req.Where.KeyRange()
	if !ok {
		return nil, fmt.Errorf("selection: operator %q not indexable", req.Where.Op)
	}
	access := IndexScan
	if sorted {
		access = SortedIndexScan
	}
	res := &Result{Access: access}

	sc := db.Borrow()
	defer db.Return(sc)
	rids := sc.Rids[:0]
	err := ix.Backend.ScanBatched(db.Client, lo, hi, sc.EntryBuf(db.Batch()), func(entries []index.Entry) (bool, error) {
		for _, e := range entries {
			rids = append(rids, e.Rid)
		}
		return true, nil
	})
	sc.Rids = rids // keep the array the scan grew
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
	var pages []storage.PageID
	window := 0
	if sorted {
		if p, ok := storage.Pager(db.Client).(storage.Prefetcher); ok && p.ReadAheadBatch() >= 2 {
			pf, window = p, p.ReadAheadBatch()
			for _, rid := range rids {
				if len(pages) == 0 || pages[len(pages)-1] != rid.Page {
					pages = append(pages, rid.Page)
				}
			}
		}
	}

	b := sc.Batch
	f := db.Handles.Fetcher()
	flush := func() error {
		n := int64(b.Len())
		if n == 0 {
			return nil
		}
		// The index already enforced Where (whereIdx -1): only the filters
		// run per fetched record.
		ch := sim.Counters{HandleGets: n, HandleUnrefs: n}
		selected, err := flushBatch(db, b, req, -1, filterIdxs, projIdxs, ch, 0)
		res.Rows += selected
		return err
	}
	pageIdx, nextPrefetch := 0, 0
	for _, rid := range rids {
		if pf != nil {
			for pageIdx < len(pages) && pages[pageIdx] != rid.Page {
				pageIdx++
			}
			if pageIdx >= nextPrefetch {
				hi := min(pageIdx+window, len(pages))
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
