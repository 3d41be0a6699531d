package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"treebench/internal/cache"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/txn"
)

// DefaultQueryChunks is the fan-out every partitionable operator decomposes
// its work into. It is a property of the *query plan*, never of the machine:
// chunk boundaries (and therefore every chunk's private meter readings) are a
// pure function of the data, so the merged accounting is byte-identical
// whether one goroutine services all eight chunks or eight service one each.
// The worker count (QueryJobs) only decides how many chunks run at once.
const DefaultQueryChunks = 8

// MinChunkWork is the minimum estimated work (items scanned, weighted by
// their per-item fan-out) a chunk must carry. Chunking a scan costs a few
// page faults per chunk — a private B-tree descent, re-faulted boundary
// pages — so tiny scans run as one chunk (the exact legacy sequential path)
// and only scans big enough to amortize the overhead fan out. Like the
// fan-out itself, the threshold is compared against data-derived quantities
// only, never worker count, so chunk decomposition stays deterministic.
const MinChunkWork = 4096

// ChunksForWork returns the chunk fan-out for a scan of the given estimated
// work units: one chunk per MinChunkWork, clamped to [1, DefaultQueryChunks].
func ChunksForWork(units int64) int {
	n := units / MinChunkWork
	if n < 1 {
		return 1
	}
	if n > DefaultQueryChunks {
		return DefaultQueryChunks
	}
	return int(n)
}

// DefaultQueryJobs returns the default intra-query worker count:
// min(NumCPU, 4). Query parallelism composes multiplicatively with the
// experiment scheduler's -j workers, so its default is deliberately lower
// than the scheduler's min(NumCPU, 8).
func DefaultQueryJobs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetQueryJobs sets how many goroutines service a query's chunks (n < 1
// selects the default). It changes wall-clock time only: chunk decomposition
// and per-chunk metering are independent of the worker count.
func (db *Session) SetQueryJobs(n int) {
	if n < 1 {
		n = 0
	}
	db.queryJobs = n
}

// QueryJobs returns the effective intra-query worker count.
func (db *Session) QueryJobs() int {
	if db.queryJobs < 1 {
		return DefaultQueryJobs()
	}
	return db.queryJobs
}

// DefaultBatch is the default vectorized-execution batch size: big enough
// to amortize per-batch costs (one meter merge, one dispatch) down to
// noise, small enough that a batch's value columns stay cache-resident.
const DefaultBatch = 1024

// SetBatch sets the vectorized-execution batch size, in records per batch
// (n < 1 selects the default; 1 runs the same operators over batches of
// one). Like SetQueryJobs it changes wall-clock time only: simulated
// counters, tables, and meters are byte-identical at every batch size.
func (db *Session) SetBatch(n int) {
	if n < 1 {
		n = 0
	}
	db.batch = n
}

// Batch returns the effective vectorized-execution batch size.
func (db *Session) Batch() int {
	if db.batch < 1 {
		return DefaultBatch
	}
	return db.batch
}

// PageRange is one contiguous run of a file's pages, [From, To) in file
// order: the unit of a partitioned scan.
type PageRange struct {
	From, To int
}

// Partition splits the extent's file into at most n contiguous page ranges
// of near-equal size. The split depends only on n and the file's page count
// — never on worker count or CPU — so chunked accounting is deterministic.
// At least one range is returned (possibly empty, for an empty file), and
// the ranges cover every page exactly once.
func (e *Extent) Partition(n int) []PageRange {
	total := e.File.NumPages()
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	if n < 1 {
		return []PageRange{{}}
	}
	out := make([]PageRange, n)
	for i := 0; i < n; i++ {
		out[i] = PageRange{From: total * i / n, To: total * (i + 1) / n}
	}
	return out
}

// ReadFork returns a read-only execution context over the same database:
// shared catalog (classes, extents, indexes, relationships) and
// shared pages, private meter, caches, handle table and transaction state.
// It is the fork-per-worker read path of chunked execution — each chunk
// charges its private meter, and the results merge deterministically.
func (db *Session) ReadFork() *Session {
	meter := sim.NewMeter(db.Meter.Model)
	srv, cli := cache.Hierarchy(db.Store.Disk, meter, db.Machine)
	f := &Session{
		Store:    db.Store,
		Meter:    meter,
		Machine:  db.Machine,
		Server:   srv,
		Client:   cli,
		Txns:     txn.NewManager(meter, cli, db.Txns.Mode()),
		readOnly: true,
	}
	f.bind(db)
	f.Handles = object.NewTable(meter, cli, f.Classes)
	return f
}

// bind points fork f at everything it takes from its parent db by value —
// catalog maps and slices (a mutable parent may have appended a
// relationship or created an index since f last ran), the
// class registry, and the settings that shape execution but no simulated
// number. ReadFork binds a new fork; runChunks re-binds a retained one
// before every use, which is all that separates the two: what a fork owns
// (meter, caches, handle table) ColdRestart has already emptied.
func (f *Session) bind(db *Session) {
	f.Classes = db.Classes
	f.extents, f.indexes, f.nextIdx = db.extents, db.indexes, db.nextIdx
	f.relationships = db.relationships
	f.indexBackend, f.batch = db.indexBackend, db.batch
	f.ctx, f.done = db.ctx, db.done
	f.Meter.SetSlimHandles(db.Meter.SlimHandles())
	f.Client.SetReadAhead(db.Client.ReadAheadBatch())
}

// chunkFork returns the session's persistent execution context for chunk i,
// creating it on first use and re-binding it to db on every later one.
// Chunk i always runs on fork i, so a fork's cache state is a deterministic
// function of the session's own query history — warm-mode sequences stay
// byte-identical at any worker count. The forks outlive ColdRestart, which
// empties them exactly as it empties db.
func (db *Session) chunkFork(i int) *Session {
	for len(db.chunkForks) <= i {
		db.chunkForks = append(db.chunkForks, nil)
	}
	f := db.chunkForks[i]
	if f == nil {
		f = db.ReadFork()
		db.chunkForks[i] = f
	} else {
		f.bind(db)
	}
	f.Meter.Reset()
	return f
}

// SetContext installs ctx as the deadline of the executions that follow
// (context.Background clears it); RunChunks' forks inherit it.
func (db *Session) SetContext(ctx context.Context) { db.ctx, db.done = ctx, ctx.Done() }

// Err is the check operators make before each chunk, at each delivered
// batch and per outer row of a handle-at-a-time join: nil while the context
// is live (a non-blocking receive on its cached Done channel) or absent.
func (db *Session) Err() error {
	select {
	case <-db.done:
		return db.ctx.Err()
	default:
		return nil
	}
}

// RunChunks executes fn once per chunk over up to QueryJobs goroutines and
// merges the chunks' private meters into db.Meter in chunk-index order.
//
// With n == 1 fn runs directly on db itself — the degenerate case is the
// legacy sequential path, bit for bit. With n > 1 each chunk runs on its
// persistent read-fork (private meter and caches, shared pages), so nothing
// about scheduling can leak into the accounting. Chunks are claimed from an
// atomic counter in index order; completion order is irrelevant because the
// merge walks the forks in index order.
//
// A session whose disk cannot serve concurrent readers (a copy-on-write
// mutable fork faults base pages into a private overlay map) runs its chunks
// on one goroutine — same chunks, same forks, same numbers, no races.
//
// On error, the error of the lowest-indexed failed chunk is returned, so the
// reported failure is deterministic too. A chunk whose turn comes after the
// session's context is done does not run: it fails with Err.
func (db *Session) RunChunks(n int, fn func(w *Session, chunk int) error) error {
	if n <= 1 {
		if err := db.Err(); err != nil {
			return err
		}
		return fn(db, 0) // the exact sequential path
	}
	workers := db.QueryJobs()
	if !db.Store.Disk.ConcurrentReads() {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	forks := make([]*Session, n)
	for i := range forks {
		forks[i] = db.chunkFork(i)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if errs[i] = db.Err(); errs[i] == nil {
				errs[i] = fn(forks[i], i)
			}
		}
	}
	for w := 1; w < workers; w++ {
		go work() // the calling goroutine is the last worker
	}
	work()
	wg.Wait()
	meters := make([]*sim.Meter, n)
	for i, f := range forks {
		meters[i] = f.Meter
	}
	db.Meter.Merge(meters...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
