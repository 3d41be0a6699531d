package engine

import (
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/storage"
)

// Scratch is the set of buffers a session lends its operators for one
// chunk of work: a batch with its value columns, a rid slice and an
// index-entry slice. Each is sized by the batch size, so allocating them
// per query would cost the same whether the query returns three rows or
// three thousand. A session keeps one and lends it (Borrow, Return).
// Chunk i always runs on the retained fork i, and a connection's session
// lives across its queries, so from a session's second query on an
// operator allocates none of these buffers.
type Scratch struct {
	// Batch has the session's batch size as capacity and is empty when
	// lent.
	Batch *object.Batch
	// Rids and Entries are lent empty. A borrower that grows one past
	// its capacity stores the grown slice back, so the session keeps the
	// larger array — up to keepRids batches of rids (Return).
	Rids    []storage.Rid
	Entries []index.Entry
}

// keepRids bounds, in batch sizes, the rid table a session keeps between
// borrows: an index scan collects all its rids before it fetches one
// record, and one large scan must not pin its table for the session's
// life. At the default batch that is 32 768 rids; the largest table the
// live benchmark builds (its analytic range class, 11 % of 200 000
// patients) stays below it, so no steady workload re-grows its table.
const keepRids = 32

// RidBuf returns the rid buffer emptied, with capacity exactly n.
// collection.ScanBatched delivers batches of cap(scratch) rids, so the
// capacity must not be larger than the batch size asked for.
func (s *Scratch) RidBuf(n int) []storage.Rid {
	if cap(s.Rids) < n {
		s.Rids = make([]storage.Rid, 0, n)
	}
	return s.Rids[:0:n]
}

// EntryBuf returns the entry buffer emptied, with capacity exactly n: the
// scratch an index.Backend's ScanBatched delivers batches of n entries
// through.
func (s *Scratch) EntryBuf(n int) []index.Entry {
	if cap(s.Entries) < n {
		s.Entries = make([]index.Entry, 0, n)
	}
	return s.Entries[:0:n]
}

// Borrow lends the session's scratch to one operator until Return, its
// batch sized to the session's batch size. A borrow while the scratch is
// already lent gets a fresh scratch the session does not keep: two
// borrowers never share a buffer. Like the rest of a session, the scratch
// belongs to the one goroutine that runs the session.
func (db *Session) Borrow() *Scratch {
	n := db.Batch()
	if db.lent {
		return &Scratch{Batch: object.NewBatch(n)}
	}
	s := db.scratch
	if s == nil {
		s = &Scratch{}
		db.scratch = s
	}
	if s.Batch == nil || s.Batch.Cap() != n {
		s.Batch = object.NewBatch(n)
	}
	db.lent = true
	return s
}

// Return takes back a scratch Borrow lent. It empties the batch, so the
// scratch holds no record — and so no buffer of a page the pool may
// evict — while the session keeps it, and drops a rid table grown past
// keepRids batches. A fresh scratch from a nested borrow is left to the
// garbage collector.
func (db *Session) Return(s *Scratch) {
	if s != db.scratch {
		return
	}
	s.Batch.Reset()
	if cap(s.Rids) > keepRids*db.Batch() {
		s.Rids = nil
	}
	db.lent = false
}

// SwapScratch installs s as the session's scratch and returns the one it
// had (nil if it never lent one). A connection that re-forks its session
// after a commit moves the old session's scratch to the new one this way,
// so the re-fork allocates no operator buffers. The scratch must not be
// lent.
func (db *Session) SwapScratch(s *Scratch) *Scratch {
	old := db.scratch
	db.scratch = s
	return old
}
