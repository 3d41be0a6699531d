// Package bufpool implements the process-wide shared page buffer pool:
// one bounded, concurrency-safe cache of backing-file pages shared by
// every session, fork, and shard in the process. It is the one way a
// page of a loaded snapshot becomes resident — every storage.Base that
// persist.Load builds reads through a Handle — and is invisible to the
// simulated meters: the paper's
// two-level client/server caches in internal/cache keep deciding what is
// a simulated hit or miss, while the pool decides what is physically
// resident. Simulated tables and counters are therefore byte-identical
// at every pool size and readahead setting; only wall clock and RSS
// move.
//
// Residency has one index: each Handle owns a page table, one atomic
// frame pointer per page of its file (8 bytes a page). A Get of a
// resident page is a load from that table — no mutex, no map probe, no
// allocation — so a warm-booted daemon pays for a pool hit what an
// eager in-memory base pays for a slice index. Everything that changes
// residency (fault, readahead admit, evict) still runs under one of 16
// shard mutexes and publishes to or clears the table slot from there; a
// frame carries a pointer back to its slot so eviction can clear it.
//
// A page is read into the pool in exactly one way: the reader that
// misses reads it. A miss that continues a sequential streak reads the
// whole readahead window with one Source.ReadPages call and admits the
// tail as prefetched (readahead.go); any other miss reads its one page.
// The pool starts no goroutine.
//
// A file that replaces another hands residency over instead of reading
// it again. Adopt admits a buffer the caller guarantees already holds a
// page's bytes, as an ordinary probationary frame, with no source read;
// Drop takes every frame of a handle out of the pool. A chain store's
// compaction saves its head to a new file, adopts into the new file's
// handle every page the head had resident, and drops the handle of the
// base it replaced, so the pool holds one image of the store however
// many compactions have run. Both change only the pool's references:
// a reader of the replaced file that is still running keeps its buffers
// and re-faults what it reads next from its still-open file.
//
// Eviction is sharded 2Q (a scan-resistant LRU variant): a page's first
// touch admits it to a probationary queue, a second touch promotes it to
// the protected queue, and eviction drains probation first. A cold
// sequential scan therefore streams through probation without displacing
// the hot index/root pages that earned protection, which is exactly the
// drift between scan-heavy and point-heavy phases that makes plain LRU
// thrash. The touch is deferred: a hit only sets a reference bit on the
// frame (test-then-set, so a page that stays hot is never written), and
// the eviction scan — the only reader of queue order — turns a set bit
// into the touch it stands for (probation → protected, protected → MRU)
// before it accepts a frame as victim. Promotion therefore happens when
// the scan reaches a frame, not when the hit happens; which frames
// survive is unchanged, the order inside the protected queue follows
// scan order rather than hit order.
//
// Frames are not recycled: evicting a frame drops the pool's reference
// and the garbage collector reclaims the buffer once the last reader's
// alias dies. That is what makes eviction safe under the engine's
// pervasive buffer aliasing (record slices, simulated cache entries, COW
// copies all alias page buffers) — an evicted frame's content can never
// be scribbled over — and what makes the lock-free hit safe: a reader
// that loaded a frame pointer just before its eviction still holds a
// valid immutable buffer.
//
// Hits are counted in cache-line-padded stripes summed by Stats, so
// parallel query chunks reading one handle do not bounce a shared
// counter.
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Source supplies page contents for one registered backing file; both
// methods must be safe for concurrent use. ReadPage fills dst (one page)
// with page i's content. ReadPages fills bufs (one page each) with the
// len(bufs) consecutive pages starting at lo — one window of readahead;
// how that becomes one system call is the source's business (a snapshot
// file uses preadv(2), or one staged read and a copy per page). A failed
// ReadPages costs only the readahead: the pool falls back to ReadPage
// for the page that was asked for.
type Source interface {
	ReadPage(i int, dst []byte) error
	ReadPages(lo int, bufs [][]byte) error
}

// Stats is a point-in-time snapshot of the pool's counters.
type Stats struct {
	Hits      int64 // Gets served from a resident frame
	Misses    int64 // Gets that faulted from the backing source
	Evictions int64 // frames dropped by capacity pressure

	ReadaheadIssued int64 // tail pages admitted by batched demand faults
	ReadaheadUsed   int64 // prefetched pages later consumed by a Get
	ReadaheadWasted int64 // prefetched pages evicted or dropped before any Get

	Adopted int64 // frames admitted by Adopt, with no source read
	Dropped int64 // frames taken out by Drop

	ResidentPages int64 // frames resident right now
	CapacityPages int64 // frame capacity (0 = unbounded)
	Sources       int64 // backing files registered
}

const (
	numShards = 16

	// numStripes is how many cache lines the hit counter is spread over.
	// A Get picks its stripe from the page number, so two query chunks
	// working different pages of one file rarely write the same line.
	numStripes = 64

	// seqThreshold is how many consecutive page accesses a handle must
	// see before a miss faults a whole readahead window. Point lookups and
	// tree descents never get there, and neither must a scan of one class
	// file in an image that interleaves several: at the live benchmark's
	// scale the Patients file lies in runs of one to four consecutive page
	// numbers, and a window armed by a run of four is one third another
	// file's pages (EXPERIMENTS.md, "What the background fetchers bought").
	seqThreshold = 8

	// minShardFrames keeps a tiny pool functional: each shard can always
	// hold a few frames, so even -bufpool-mb 1 makes progress (just with
	// brutal eviction pressure — the equivalence tests run there on
	// purpose).
	minShardFrames = 8
)

// key identifies one page of one registered source in a shard's
// in-flight table.
type key struct {
	src  uint64
	page uint32
}

// frame is one resident page. buf and slot are immutable once the frame
// is published; ref and prefetched are the only fields touched outside
// the shard mutex.
type frame struct {
	buf  []byte
	slot *atomic.Pointer[frame] // the owning handle's page-table entry

	// ref is the reference bit: set by a hit, cleared by the eviction
	// scan when it applies the deferred 2Q touch the bit stands for.
	ref atomic.Bool

	// prefetched marks a frame admitted as the tail of a batched demand
	// fault and not yet consumed. Whoever swaps it to false accounts for it: the
	// first Get (readahead used) or the eviction (readahead wasted).
	prefetched atomic.Bool

	hot        bool // protected (true) or probationary (false) queue
	prev, next *frame
}

// list is an intrusive LRU queue: head is LRU (eviction end), tail MRU.
type list struct {
	head, tail *frame
	n          int
}

func (l *list) pushMRU(f *frame) {
	f.prev, f.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.n++
}

func (l *list) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next = nil, nil
	l.n--
}

// inflight is where the reader of a page in flight leaves its result for
// the readers waiting on it, so concurrent faulters of the same page share
// one backing read instead of issuing duplicates. It is made by the first
// reader that waits, not by the faulter: a miss nobody else wants
// allocates its frame and its page and nothing more.
type inflight struct {
	done chan struct{}
	buf  []byte
	err  error
}

// shard is one lock domain of the pool: the frames whose (source, page)
// hash here, their 2Q queues and the reads in flight for them. Which
// pages are resident is recorded in the handles' page tables, written
// only under this mutex.
type shard struct {
	mu sync.Mutex
	// inflight holds a key for every page being read; its value is nil
	// until a second reader waits on the read.
	inflight  map[key]*inflight
	probation list // first-touch pages; evicted first (scan resistance)
	protected list // pages touched at least twice
	capFrames int  // 0 = unbounded
}

func (sh *shard) resident() int { return sh.probation.n + sh.protected.n }

// stripedCounter is a counter spread over numStripes cache lines.
type stripedCounter [numStripes]struct {
	n atomic.Int64
	_ [56]byte
}

func (c *stripedCounter) add(stripe int) { c[stripe&(numStripes-1)].n.Add(1) }

func (c *stripedCounter) sum() int64 {
	var t int64
	for i := range c {
		t += c[i].n.Load()
	}
	return t
}

// Pool is the shared buffer pool. Construct with New; the process-wide
// instance lives in this package's global registry (see Setup/Active).
type Pool struct {
	pageSize  int
	readahead int
	shards    [numShards]shard
	nextSrc   atomic.Uint64

	hits                       stripedCounter
	misses, evictions          atomic.Int64
	raIssued, raUsed, raWasted atomic.Int64
	adopted, dropped           atomic.Int64
}

// New returns a pool of capacityBytes (0 = unbounded) over pageSize
// frames. readahead is the window in pages a sequential miss faults at
// once (0 disables readahead; the streak detector then never runs).
func New(capacityBytes int64, pageSize, readahead int) *Pool {
	if pageSize < 1 {
		panic("bufpool: page size < 1")
	}
	if readahead < 0 {
		readahead = 0
	}
	p := &Pool{pageSize: pageSize, readahead: readahead}
	capFrames := 0
	if capacityBytes > 0 {
		capFrames = int(capacityBytes) / pageSize
	}
	for i := range p.shards {
		sh := &p.shards[i]
		if capFrames > 0 {
			sh.capFrames = capFrames / numShards
			if sh.capFrames < minShardFrames {
				sh.capFrames = minShardFrames
			}
		}
		sh.inflight = make(map[key]*inflight)
	}
	return p
}

// Register adds a backing file of numPages pages and returns its handle.
func (p *Pool) Register(src Source, numPages int) *Handle {
	h := &Handle{
		pool:     p,
		id:       p.nextSrc.Add(1),
		src:      src,
		numPages: numPages,
		table:    make([]atomic.Pointer[frame], numPages),
	}
	h.raLast.Store(-2) // so page 0 never looks like the successor of a previous access
	h.raStreak.Store(1)
	return h
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Hits:      p.hits.sum(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Adopted:   p.adopted.Load(),
		Dropped:   p.dropped.Load(),
		Sources:   int64(p.nextSrc.Load()),
	}
	// Outcomes before issues: a prefetch is issued before it can be used
	// or wasted, so this order keeps used + wasted <= issued in a snapshot
	// taken while readers fault.
	s.ReadaheadUsed = p.raUsed.Load()
	s.ReadaheadWasted = p.raWasted.Load()
	s.ReadaheadIssued = p.raIssued.Load()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		s.ResidentPages += int64(sh.resident())
		s.CapacityPages += int64(sh.capFrames)
		sh.mu.Unlock()
	}
	return s
}

func (p *Pool) shardFor(k key) *shard {
	// Mix source and page so consecutive pages of one file spread over
	// shards (a sequential scan would otherwise convoy on one mutex).
	h := k.src*0x9E3779B97F4A7C15 + uint64(k.page)*0xBF58476D1CE4E5B9
	return &p.shards[(h^(h>>29))%numShards]
}

// hit records a Get of resident frame f: it leaves the
// reference bit set for the eviction scan and graduates a prefetched
// frame to consumed. It takes no lock and, on a frame that is already
// referenced and consumed, writes nothing.
func (p *Pool) hit(f *frame) {
	if !f.ref.Load() {
		f.ref.Store(true)
	}
	if f.prefetched.Load() && f.prefetched.CompareAndSwap(true, false) {
		p.raUsed.Add(1)
	}
}

// protCap is the protected queue's share of a bounded shard: 3/4 of
// capacity, so probation always has room for a scan to stream through.
func (sh *shard) protCap() int {
	if c := sh.capFrames * 3 / 4; c > 1 {
		return c
	}
	return 1
}

// demoteLocked moves protected's coldest frame back to probation-MRU,
// where eviction can reach it if it stays cold. Coldest honours the
// deferred touch: while the LRU frame has its reference bit set, the bit
// is cleared and the frame moves to MRU — where an immediate touch would
// have put it — for at most one turn of the queue. Caller holds the shard
// mutex; protected must not be empty.
func (sh *shard) demoteLocked() {
	l := &sh.protected
	for turn := l.n; turn > 0 && l.head.ref.Load(); turn-- {
		f := l.head
		f.ref.Store(false)
		l.remove(f)
		l.pushMRU(f)
	}
	d := l.head
	l.remove(d)
	d.hot = false
	sh.probation.pushMRU(d)
}

// admitLocked publishes a new frame for page of h in probation and evicts
// past capacity. Caller holds the shard mutex; the page must not be
// resident.
func (sh *shard) admitLocked(h *Handle, page int, buf []byte, prefetched bool) {
	f := &frame{buf: buf, slot: &h.table[page]}
	if prefetched {
		// Issued is counted before the frame is visible, so that used +
		// wasted can never be seen ahead of it.
		f.prefetched.Store(true)
		h.pool.raIssued.Add(1)
	}
	sh.probation.pushMRU(f)
	f.slot.Store(f)
	sh.evictLocked(h.pool)
}

// evictLocked drops frames until the shard is within capacity, draining
// probation before protected.
func (sh *shard) evictLocked(p *Pool) {
	if sh.capFrames == 0 {
		return
	}
	for sh.resident() > sh.capFrames {
		sh.removeLocked(p, sh.victimLocked())
		p.evictions.Add(1)
	}
}

// removeLocked takes resident frame f off its queue and out of its page
// table slot. A prefetched frame no Get consumed counts as wasted
// readahead. Caller holds the shard mutex.
func (sh *shard) removeLocked(p *Pool, f *frame) {
	if f.hot {
		sh.protected.remove(f)
	} else {
		sh.probation.remove(f)
	}
	f.slot.Store(nil)
	if f.prefetched.CompareAndSwap(true, false) {
		p.raWasted.Add(1)
	}
}

// victimLocked picks the frame to evict: the least-recently-used frame
// of probation, then of protected, that has not been referenced since
// the scan last saw it. A referenced frame is not a victim — its bit is
// the touch the lock-free Get did not splice, and the scan splices it
// now: a probationary frame is promoted to protected-MRU (the second
// touch of 2Q), a protected one moves to MRU. The shard must hold at
// least one frame.
func (sh *shard) victimLocked() *frame {
	// Every step below retires a reference bit; the budget only matters if
	// readers keep re-referencing frames as fast as the scan clears them,
	// and then recency is ignored.
	budget := 2 * sh.resident()
	for f := sh.probation.head; f != nil; {
		if budget == 0 || !f.ref.Load() {
			return f
		}
		budget--
		f.ref.Store(false)
		// Keep the protected queue from monopolizing the shard: past 3/4 of
		// capacity its coldest frames go back to probation, behind f, so
		// this walk reaches them.
		for sh.protected.n >= sh.protCap() {
			sh.demoteLocked()
		}
		next := f.next
		sh.probation.remove(f)
		f.hot = true
		sh.protected.pushMRU(f)
		f = next
	}
	f := sh.protected.head
	for budget > 0 && f.ref.Load() {
		budget--
		f.ref.Store(false)
		if next := f.next; next != nil {
			sh.protected.remove(f)
			sh.protected.pushMRU(f)
			f = next
		} // else f is already MRU: look at it again, unreferenced now
	}
	return f
}

// Handle is one registered backing file's view of the pool. It is safe
// for concurrent use; every session and fork reading the same snapshot
// file shares one handle (and therefore one copy of every resident
// page).
type Handle struct {
	pool     *Pool
	id       uint64
	src      Source
	numPages int

	// table is the residency index: table[i] is page i's resident frame,
	// nil when the page is not in memory. Loaded without a lock by Get;
	// stored only under the page's shard mutex.
	table []atomic.Pointer[frame]

	// The sequential detector's cursor is written by every random Get, so
	// it lives on its own cache line, away from the read-only fields
	// above that every Get loads.
	_        [64]byte
	raLast   atomic.Int64 // last page accessed
	raStreak atomic.Int32 // consecutive sequential accesses ending at raLast, counted up to seqThreshold
	_        [64]byte
}

// inRange reports whether page indexes the handle's page table.
func (h *Handle) inRange(page int) bool { return uint(page) < uint(len(h.table)) }

func (h *Handle) errRange(page int) error {
	return fmt.Errorf("bufpool: page %d out of range (%d pages)", page, h.numPages)
}

// Get returns page's content, from a resident frame or by faulting it
// in. The returned buffer is the shared resident copy — callers must
// not mutate it. Concurrent Gets of one page share a single backing
// read. A Get of a resident page takes no lock and allocates nothing.
func (h *Handle) Get(page int) ([]byte, error) {
	if !h.inRange(page) {
		return nil, h.errRange(page)
	}
	if f := h.table[page].Load(); f != nil {
		h.pool.hit(f)
		h.pool.hits.add(page)
		h.noteAccess(page)
		return f.buf, nil
	}
	h.pool.misses.Add(1)
	buf, err := h.fault(page)
	if err != nil {
		return nil, err
	}
	h.noteAccess(page)
	return buf, nil
}

// GetPage implements storage.PageCache.
func (h *Handle) GetPage(i int) ([]byte, error) { return h.Get(i) }

// fault reads page from the backing source, deduplicating concurrent
// faulters through the shard's in-flight table, and admits the result.
// A miss that continues an established sequential streak reads its whole
// readahead window instead (faultRange).
func (h *Handle) fault(page int) ([]byte, error) {
	k := key{h.id, uint32(page)}
	sh := h.pool.shardFor(k)
	sh.mu.Lock()
	if f := h.table[page].Load(); f != nil { // raced in (another faulter, or the tail of its window)
		h.pool.hit(f)
		sh.mu.Unlock()
		return f.buf, nil
	}
	if c, ok := sh.inflight[k]; ok {
		if c == nil {
			c = &inflight{done: make(chan struct{})}
			sh.inflight[k] = c
		}
		sh.mu.Unlock()
		<-c.done
		return c.buf, c.err
	}
	sh.inflight[k] = nil
	sh.mu.Unlock()

	var buf []byte
	var err error
	if hi := h.batchSpan(page); hi > page+1 {
		buf, err = h.faultRange(page, hi)
	} else {
		buf = make([]byte, h.pool.pageSize)
		err = h.src.ReadPage(page, buf)
	}

	sh.mu.Lock()
	c := sh.inflight[k]
	delete(sh.inflight, k)
	if err == nil {
		if f := h.table[page].Load(); f == nil {
			sh.admitLocked(h, page, buf, false)
		} else {
			buf = f.buf // admitted while we read; share its frame
		}
	}
	sh.mu.Unlock()
	if c != nil {
		c.buf, c.err = buf, err
		close(c.done)
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Resident implements storage.PageCache: page i's buffer if it is
// resident. It is a peek: it never faults, counts no hit, sets no
// reference bit and does not move the streak cursor.
func (h *Handle) Resident(i int) ([]byte, bool) {
	if !h.inRange(i) {
		return nil, false
	}
	if f := h.table[i].Load(); f != nil {
		return f.buf, true
	}
	return nil, false
}

// Adopt admits buf as page's frame without reading the source. The
// caller guarantees buf holds exactly the page's bytes and is never
// written again. The frame is an ordinary probationary one, so capacity
// pressure may evict it like any other. Adopt is a no-op when the page
// is out of range, resident, or being faulted: the fault's own read wins,
// as it does over a prefetched tail page.
func (h *Handle) Adopt(page int, buf []byte) {
	if h.inRange(page) && h.admitIfAbsent(page, buf, false) {
		h.pool.adopted.Add(1)
	}
}

// admitIfAbsent admits buf as page's frame unless the page is resident
// or a fault of it is in flight, and reports whether it did.
func (h *Handle) admitIfAbsent(page int, buf []byte, prefetched bool) bool {
	k := key{h.id, uint32(page)}
	sh := h.pool.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, faulting := sh.inflight[k]; faulting || h.table[page].Load() != nil {
		return false
	}
	sh.admitLocked(h, page, buf, prefetched)
	return true
}

// Drop takes every resident frame of the handle out of the pool: off its
// 2Q queue and out of the page table, each under its page's shard mutex.
// Like an eviction it drops only the pool's reference, so a reader that
// holds a buffer keeps a valid one, and a later Get faults the page in
// again. A fault in flight while Drop runs admits its page as usual.
func (h *Handle) Drop() {
	for page := range h.table {
		if h.table[page].Load() == nil {
			continue
		}
		sh := h.pool.shardFor(key{h.id, uint32(page)})
		sh.mu.Lock()
		if f := h.table[page].Load(); f != nil {
			sh.removeLocked(h.pool, f)
			h.pool.dropped.Add(1)
		}
		sh.mu.Unlock()
	}
}
