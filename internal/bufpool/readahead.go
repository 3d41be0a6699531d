// Readahead: the reader that misses does it. A per-handle streak counter
// on consecutive page numbers detects a sequential scan; a demand miss
// that continues an established streak reads its whole window with one
// Source.ReadPages call and admits the tail pages as prefetched, so a
// cold scan pays one system call per window instead of one per page.
//
// Detection is deliberately simple and cheap. Tree descents and point
// lookups jump around and never reach the threshold; a walk over pages
// that are contiguous in the image trips it within seqThreshold accesses. There is no background half: nothing runs ahead of the
// consumer, so nothing can fall behind it, be dropped from a queue, or
// outlive the pool (EXPERIMENTS.md, "What the background fetchers
// bought").
package bufpool

// noteAccess advances the handle's sequential detector. Called on every
// Get, hit or miss — a scan over a half-warm pool still wants its cold
// tail read by the window. Two atomic loads and, unless a page is
// re-read, one store; no lock.
func (h *Handle) noteAccess(page int) {
	if h.pool.readahead <= 0 {
		return
	}
	switch last := h.raLast.Load(); int64(page) {
	case last + 1:
		if s := h.raStreak.Load(); s < seqThreshold {
			h.raStreak.Store(s + 1)
		}
		h.raLast.Store(int64(page))
	case last:
		// Re-read of the same page: neither extends nor breaks a streak.
	default:
		// Test-then-store: random access leaves the streak at 1, and the
		// cursor below is the only write two readers of one handle share.
		if h.raStreak.Load() != 1 {
			h.raStreak.Store(1)
		}
		h.raLast.Store(int64(page))
	}
}

// batchSpan decides whether the miss on page should fault a whole window:
// it returns the half-open end of the span to read (page+1 — i.e. no
// batching — unless readahead is on and this access continues a
// sequential streak past the threshold). The span is clipped at the file
// end and at the first already-resident page.
func (h *Handle) batchSpan(page int) int {
	p := h.pool
	if p.readahead <= 0 {
		return page + 1
	}
	if int64(page) != h.raLast.Load()+1 || h.raStreak.Load()+1 < seqThreshold {
		return page + 1
	}
	hi := page + p.readahead
	if hi > h.numPages {
		hi = h.numPages
	}
	// Clip the span at resident pages, probing at a coarse stride: a hit
	// at a probe point narrows to a fine scan, bounding read amplification
	// to one stride's worth of already-resident pages.
	const probeStride = 8
	for j := page + probeStride; j < hi; j += probeStride {
		if h.resident(j) {
			for f := j - probeStride + 1; f <= j; f++ {
				if h.resident(f) {
					return f
				}
			}
		}
	}
	return hi
}

// faultRange reads pages [page, hi) straight into their frames with one
// window read, admits the tail pages as prefetched, and returns the
// demand page's buffer for the caller (who holds the in-flight slot for
// it) to admit normally. If the window read fails — a short file tail,
// a bad sector under a page nobody asked for — nothing of the tail is
// admitted and the demand page alone is read again.
func (h *Handle) faultRange(page, hi int) ([]byte, error) {
	frames := make([][]byte, hi-page)
	for i := range frames {
		frames[i] = make([]byte, h.pool.pageSize)
	}
	if err := h.src.ReadPages(page, frames); err != nil {
		return frames[0], h.src.ReadPage(page, frames[0])
	}
	// A tail page already resident or in flight keeps the frame it has.
	for i, buf := range frames[1:] {
		h.admitIfAbsent(page+1+i, &frame{buf: buf}, true)
	}
	return frames[0], nil
}
