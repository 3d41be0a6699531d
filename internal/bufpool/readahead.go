// Asynchronous readahead: per-handle sequential-access detection feeding
// a small pool of background fetchers that pull upcoming pages into
// frames before the consumer asks for them.
//
// Detection is deliberately simple and cheap — a streak counter on
// consecutive page numbers per handle. Tree descents and point lookups
// jump around and never reach the threshold; Extent.Partition and
// ScanBatched walk extent files page by page and trip it within four
// accesses. Once a streak is established, the handle schedules a window
// of pages ahead of the cursor and re-arms at the window's midpoint, so
// the fetchers stay roughly half a window ahead of the consumer
// (pipelining, not one stall per window).
//
// Fetchers prefer RangeSource: one positioned read covering the whole
// window into a scratch buffer, then a per-page copy into individual
// frames. Pages that became resident while the request sat in the queue
// are skipped; pages a consumer faults concurrently are admitted
// first-wins (content is identical — the backing file is immutable).
//
// Readahead has a synchronous half too: a demand miss that continues an
// established streak faults the whole window in one positioned read
// (Handle.faultRange). On machines with spare CPUs the async fetchers
// usually get there first and the batched fault never triggers; on a
// single CPU — where a background goroutine can never outrun the
// consumer — the batched fault is what delivers the sequential-scan win,
// by syscall amortization instead of overlap.
package bufpool

import "runtime"

// numFetchers is the size of the background fetcher pool. Two is enough
// to overlap one range read with one copy-out on small machines while
// keeping speculative I/O from swamping real faults.
const numFetchers = 2

// fetchQueueLen bounds queued prefetch requests; when the queue is full
// new requests are dropped (the consumer's synchronous fault path is
// always correct, readahead is purely advisory).
const fetchQueueLen = 64

type fetchReq struct {
	h      *Handle
	lo, hi int // half-open page range
}

// noteAccess advances the handle's sequential detector and schedules
// prefetch when a streak is established. Called on every Get, hit or
// miss — a scan over a half-warm pool still wants the cold tail
// prefetched. Below the threshold the detector is two atomics; the ra
// mutex is taken only to schedule a window for a live streak or to
// retire the window of a broken one.
func (h *Handle) noteAccess(page int) {
	p := h.pool
	if p.readahead <= 0 {
		return
	}
	// Deep inside an already-scheduled window there is nothing to
	// schedule and re-arm is far away. raLast goes stale while skipping;
	// the streak simply re-establishes (four hits on resident pages) once
	// the cursor nears the frontier.
	next := h.raNext.Load()
	if next > 0 && int64(page) < next-int64(p.readahead/2) {
		return
	}
	var streak int32
	switch last := h.raLast.Load(); int64(page) {
	case last + 1:
		streak = h.raStreak.Add(1)
		h.raLast.Store(int64(page))
	case last:
		// Re-read of the same page: neither extends nor breaks a streak.
		streak = h.raStreak.Load()
	default:
		if next > 0 {
			h.ra.Lock()
			h.raNext.Store(0)
			h.ra.Unlock()
		}
		// Test-then-store: random access leaves the streak at 1, and the
		// cursor below is the only write two readers of one handle share.
		if h.raStreak.Load() != 1 {
			h.raStreak.Store(1)
		}
		h.raLast.Store(int64(page))
		return
	}
	if streak < seqThreshold {
		return
	}
	var req fetchReq
	h.ra.Lock()
	start := page + 1
	if next := int(h.raNext.Load()); start < next {
		// Already scheduled ahead; re-arm only once the cursor is within
		// half a window of the prefetch frontier.
		if next-start >= p.readahead/2 {
			h.ra.Unlock()
			return
		}
		start = next
	}
	end := start + p.readahead
	if end > h.numPages {
		end = h.numPages
	}
	if start < end {
		h.raNext.Store(int64(end))
		req = fetchReq{h: h, lo: start, hi: end}
	}
	h.ra.Unlock()
	// With a single CPU a background fetcher can never outrun the
	// consumer — it would only re-read (or bookkeep) pages the batched
	// demand fault is already bringing in. Streak tracking above still
	// runs: it is what arms the batched fault.
	if req.h != nil && runtime.GOMAXPROCS(0) > 1 {
		p.enqueue(req)
	}
}

// Warm asynchronously loads the given pages into the pool. Pages are
// coalesced into maximal consecutive runs so a RangeSource-backed handle
// warms with few large reads. The page list must be sorted ascending; it
// is used by ChainStore boot to pre-fault the WAL-replay page set.
// Warming is advisory like all prefetch — under eviction pressure the
// pool keeps whatever 2Q decides (pin explicitly if residency must be
// guaranteed).
func (h *Handle) Warm(pages []int) {
	if len(pages) == 0 {
		return
	}
	lo := pages[0]
	prev := pages[0]
	flush := func(lo, hi int) {
		for s := lo; s < hi; s += warmChunk {
			e := s + warmChunk
			if e > hi {
				e = hi
			}
			h.pool.enqueue(fetchReq{h: h, lo: s, hi: e})
		}
	}
	for _, pg := range pages[1:] {
		if pg == prev || pg == prev+1 {
			prev = pg
			continue
		}
		flush(lo, prev+1)
		lo, prev = pg, pg
	}
	flush(lo, prev+1)
}

// warmChunk caps one warm request's range so scratch buffers stay small
// and requests interleave fairly with demand readahead.
const warmChunk = 64

// enqueue hands a prefetch request to the fetcher pool, starting it on
// first use. Requests are dropped when the queue is full or the pool is
// closed — prefetch is advisory.
func (p *Pool) enqueue(req fetchReq) {
	p.fetchOnce.Do(func() {
		p.qmu.Lock()
		if !p.closed {
			p.fetchQ = make(chan fetchReq, fetchQueueLen)
			for i := 0; i < numFetchers; i++ {
				go p.fetcher()
			}
		}
		p.qmu.Unlock()
	})
	p.qmu.RLock()
	if !p.closed && p.fetchQ != nil {
		select {
		case p.fetchQ <- req:
		default:
		}
	}
	p.qmu.RUnlock()
}

func (p *Pool) fetcher() {
	var scratch []byte
	for req := range p.fetchQ {
		scratch = p.prefetch(req, scratch)
	}
}

// prefetch materializes one request: trim pages already resident at the
// head and tail of the range, claim an in-flight slot for each remaining
// page (so a concurrent demand fault WAITS for this read instead of
// issuing its own), read the claimed pages (one range read when the
// source supports it, per-page reads otherwise), and admit them.
// Returns the (possibly grown) scratch buffer for reuse.
func (p *Pool) prefetch(req fetchReq, scratch []byte) []byte {
	h := req.h
	lo, hi := req.lo, req.hi
	for lo < hi && h.resident(lo) {
		lo++
	}
	for hi > lo && h.resident(hi-1) {
		hi--
	}
	if lo >= hi {
		return scratch
	}

	// Claim in-flight slots. Pages already resident or already being
	// read (by a faulter or another fetcher) are skipped — first wins.
	// One done channel covers the whole batch: every claim resolves when
	// the one backing read (and its admits) completes.
	type claim struct {
		pg int
		c  *inflight
	}
	done := make(chan struct{})
	claims := make([]claim, 0, hi-lo)
	for pg := lo; pg < hi; pg++ {
		k := key{h.id, uint32(pg)}
		sh := p.shardFor(k)
		sh.mu.Lock()
		if h.table[pg].Load() == nil && sh.inflight[k] == nil {
			c := &inflight{done: done}
			sh.inflight[k] = c
			claims = append(claims, claim{pg, c})
		}
		sh.mu.Unlock()
	}
	if len(claims) == 0 {
		return scratch
	}

	// Read and admit the claims one contiguous run at a time. A
	// VectorSource scatters each run straight into its frames (one
	// syscall, no staging copy); a RangeSource stages through scratch;
	// a plain Source reads page by page.
	for start := 0; start < len(claims); {
		end := start + 1
		for end < len(claims) && claims[end].pg == claims[end-1].pg+1 {
			end++
		}
		run := claims[start:end]
		start = end

		switch {
		case h.vec != nil:
			frames := make([][]byte, len(run))
			for i := range frames {
				frames[i] = make([]byte, p.pageSize)
			}
			err := h.vec.ReadPageVec(run[0].pg, frames)
			for i, cl := range run {
				if err != nil {
					p.completeClaim(h, cl.pg, cl.c, nil, err)
				} else {
					p.completeClaim(h, cl.pg, cl.c, frames[i], nil)
				}
			}
		case h.rs != nil:
			need := len(run) * p.pageSize
			if cap(scratch) < need {
				scratch = make([]byte, need)
			}
			buf := scratch[:need]
			err := h.rs.ReadPageRange(run[0].pg, buf)
			for i, cl := range run {
				var fb []byte
				if err == nil {
					fb = make([]byte, p.pageSize)
					copy(fb, buf[i*p.pageSize:])
				}
				p.completeClaim(h, cl.pg, cl.c, fb, err)
			}
		default:
			for _, cl := range run {
				fb := make([]byte, p.pageSize)
				err := h.src.ReadPage(cl.pg, fb)
				if err != nil {
					fb = nil
				}
				p.completeClaim(h, cl.pg, cl.c, fb, err)
			}
		}
	}
	close(done)
	return scratch
}

// completeClaim resolves one claimed in-flight slot: on success the page
// is admitted as prefetched and waiters get the frame's buffer; on error
// waiters get the error (exactly like a failed demand fault). The shared
// done channel is closed by the caller after every claim resolves —
// waiters on an early page block a little longer than strictly needed,
// which is harmless (the content is already admitted by then).
func (p *Pool) completeClaim(h *Handle, page int, c *inflight, buf []byte, err error) {
	k := key{h.id, uint32(page)}
	sh := p.shardFor(k)
	sh.mu.Lock()
	delete(sh.inflight, k)
	if err == nil {
		if f := h.table[page].Load(); f == nil {
			sh.admitLocked(h, page, buf, true)
		} else {
			buf = f.buf
		}
	}
	sh.mu.Unlock()
	c.buf, c.err = buf, err
}

// admitPrefetched admits one tail page of a batched demand fault, unless
// the page is already resident or a demand fault for it is in flight.
// An owned buf becomes the frame (a vectored read already landed the
// bytes in their final place); otherwise buf is a view of staging
// scratch and is copied out.
func (h *Handle) admitPrefetched(page int, buf []byte, owned bool) {
	k := key{h.id, uint32(page)}
	sh := h.pool.shardFor(k)
	sh.mu.Lock()
	if h.table[page].Load() == nil && sh.inflight[k] == nil {
		if !owned {
			buf = append(make([]byte, 0, len(buf)), buf...)
		}
		sh.admitLocked(h, page, buf, true)
	}
	sh.mu.Unlock()
}
