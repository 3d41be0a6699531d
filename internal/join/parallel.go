package join

import (
	"treebench/internal/engine"
	"treebench/internal/index"
)

// Chunked execution support. Every parallelized driver decomposes its index
// scans into contiguous key subranges with chunkKeyRanges and runs them
// through engine.Session.RunChunks. Chunk boundaries depend only on the
// query's key bounds and the fixed engine.DefaultQueryChunks fan-out — never
// on the worker count — so each chunk's private meter readings, and their
// chunk-order merge, are identical at any parallelism level.

// keyRange is one half-open key interval [Lo, Hi) of a chunked index scan.
type keyRange struct{ Lo, Hi int64 }

// chunkKeyRanges splits [lo, hi) into at most n contiguous subranges of
// near-equal width, in ascending key order. A span smaller than n collapses
// to one range per key; an empty or inverted span yields the single range
// [lo, hi) so the degenerate case takes the direct (unforked) path through
// RunChunks.
func chunkKeyRanges(lo, hi int64, n int) []keyRange {
	span := hi - lo
	if span < int64(n) {
		n = int(span)
	}
	if n < 1 {
		return []keyRange{{lo, hi}}
	}
	out := make([]keyRange, n)
	for i := range out {
		out[i] = keyRange{lo + span*int64(i)/int64(n), lo + span*int64(i+1)/int64(n)}
	}
	return out
}

// chunkScan decomposes the index scan [lo, hi) for chunked execution.
// weight is the estimated work per key (1 for a plain scan step; NL passes
// its fan-out, since each parent key navigates a whole client set): scans
// too small to amortize the per-chunk overhead collapse to a single range,
// which RunChunks executes directly on the session — the exact sequential
// path.
func chunkScan(lo, hi, weight int64) []keyRange {
	if weight < 1 {
		weight = 1
	}
	return chunkKeyRanges(lo, hi, engine.ChunksForWork((hi-lo)*weight))
}

// scanBatches runs ix's batched scan of r on w, w.Batch() entries at a
// time through the entry buffer of sc (w's borrowed scratch), and stops at
// w's deadline before each delivered batch.
func scanBatches(w *engine.Session, sc *engine.Scratch, ix *engine.Index, r keyRange, fn func([]index.Entry) (bool, error)) error {
	return ix.Backend.ScanBatched(w.Client, r.Lo, r.Hi, sc.EntryBuf(w.Batch()), func(entries []index.Entry) (bool, error) {
		if err := w.Err(); err != nil {
			return false, err
		}
		return fn(entries)
	})
}

// scanRows runs ix's scan of [lo, hi) on db, one entry at a time, and stops
// at db's deadline before each row.
func scanRows(db *engine.Session, ix *engine.Index, lo, hi int64, fn func(index.Entry) (bool, error)) error {
	return ix.Backend.Scan(db.Client, lo, hi, func(e index.Entry) (bool, error) {
		if err := db.Err(); err != nil {
			return false, err
		}
		return fn(e)
	})
}

// sumTuples folds the chunks' partial results into res in chunk-index order.
func sumTuples(res *Result, parts []*Result) {
	for _, p := range parts {
		if p != nil {
			res.Tuples += p.Tuples
		}
	}
}
