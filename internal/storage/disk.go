package storage

import (
	"errors"
	"fmt"

	"treebench/internal/bufpool"
)

// ErrNoPage is returned for reads of unallocated pages.
var ErrNoPage = errors.New("storage: no such page")

// ErrReadOnly is returned for writes and allocations on a read-only disk
// (the frozen builder of a snapshot, or a read-only fork of one). It is the
// storage-level backstop behind the engine's read-only session guard: the
// guard stops mutations before any shared buffer is touched; this error
// stops anything that slips through at the first Alloc or Write.
var ErrReadOnly = errors.New("storage: read-only disk")

// Pager is the page-access interface the record layer runs on. The raw Disk
// implements it without any cost accounting; the cache package wraps a Disk
// in the two-level client/server cache that charges I/O, RPCs and cache
// events to the session meter.
type Pager interface {
	// Read returns the content of page id. The returned slice aliases the
	// resident copy; callers mutate it only via Write-notification, i.e.
	// mutate then call Write(id).
	Read(id PageID) ([]byte, error)
	// Write marks page id dirty after its buffer has been mutated.
	Write(id PageID) error
	// Alloc creates a zeroed page and returns its id and buffer. The new
	// page is born dirty.
	Alloc() (PageID, []byte, error)
}

// PageCache serves pages of one backing file from a shared, bounded,
// evicting cache. It is how the Base of a loaded snapshot plugs into the
// process-wide buffer pool (internal/bufpool): GetPageAs returns page i's
// canonical resident buffer for a named reader, faulting and evicting as
// the cache sees fit. The returned buffer must stay immutable while the
// reader may hold it: the cache reuses an evicted page's memory only once
// every reader that could hold it has quiesced or gone offline
// (bufpool.Reader). GetPage is the same read for a caller that names no
// reader; its buffer is never reused.
//
// Resident returns page i's buffer only if the cache holds it, and is a
// pure peek: no fault, and nothing that counts or orders accesses moves.
// Like GetPage it names no reader, so the buffer is never reused.
// It is how residency passes from one file to the next. A compaction
// saves a version to a new file, and every page that version had
// resident is adopted as a frame of the new file's cache, since the file
// holds those exact bytes. The cache of the base the compaction replaced
// is then dropped. Adopting and dropping only move the cache's
// references; a reader of the replaced base that still runs keeps its
// buffers and faults from its own file.
type PageCache interface {
	GetPage(i int) ([]byte, error)
	GetPageAs(r *bufpool.Reader, i int) ([]byte, error)
	Resident(i int) ([]byte, bool)
}

// Base is a frozen, immutable page image: the disk-resident half of a
// database snapshot. Any number of Disks can be forked from one Base and
// share its page buffers physically; Base itself has no mutating methods.
//
// A Base is eager (all page buffers resident: the Freeze path) or
// pool-backed (pages served by a shared PageCache that faults them from
// the snapshot file and may evict them under pressure: the persist.Load
// path). There is no third kind. Forks cannot tell the difference: both
// return immutable canonical buffers, so the shared-buffer discipline
// holds throughout.
type Base struct {
	pages    [][]byte // eager image; nil for a pool-backed base
	n        int      // page count
	capacity int      // max pages; 0 means unbounded

	pcache PageCache // shared bounded page cache; nil for an eager base

	delta *Delta // chained base: a committed delta over delta.parent; nil for a flat base
}

// NewBase builds an eager Base directly from page buffers (the
// snapshot-restore path when the whole image is already in memory). Each
// buffer must be PageSize bytes; the slice is owned by the Base from here
// on. capacityBytes of 0 means unbounded.
func NewBase(pages [][]byte, capacityBytes int64) *Base {
	b := &Base{pages: pages[:len(pages):len(pages)], n: len(pages)}
	if capacityBytes > 0 {
		b.capacity = int(capacityBytes / PageSize)
	}
	return b
}

// NewCachedBase builds a Base of numPages pages served by a shared page
// cache (the process-wide buffer pool's per-file handle). Resident pages
// are bounded: the cache may evict cold pages and re-fault them later.
// capacityBytes of 0 means unbounded simulated capacity (unrelated to
// the cache's physical budget).
func NewCachedBase(numPages int, capacityBytes int64, pc PageCache) *Base {
	b := &Base{n: numPages, pcache: pc}
	if capacityBytes > 0 {
		b.capacity = int(capacityBytes / PageSize)
	}
	return b
}

// NumPages returns the number of frozen pages.
func (b *Base) NumPages() int { return b.n }

// Bytes returns the physical size of the frozen page image.
func (b *Base) Bytes() int64 { return int64(b.n) * PageSize }

// CapacityBytes returns the disk capacity the base was frozen with
// (0 = unbounded), so a persisted snapshot can restore it exactly.
func (b *Base) CapacityBytes() int64 { return int64(b.capacity) * PageSize }

// Page returns the shared buffer of page id, through the page cache on
// a pool-backed base, for a caller that names no reader. The returned
// slice is the canonical resident copy — callers must never mutate it.
// Safe for concurrent use.
func (b *Base) Page(id PageID) ([]byte, error) { return b.PageAs(nil, id) }

// PageAs is Page for reader r: on a pool-backed base the buffer stays the
// page's content until r quiesces or goes offline. A nil r names no
// reader.
func (b *Base) PageAs(r *bufpool.Reader, id PageID) ([]byte, error) {
	if int(id) >= b.n {
		return nil, fmt.Errorf("%w: %d", ErrNoPage, id)
	}
	buf, flat := b.owner(id)
	if flat == nil {
		return buf, nil
	}
	if flat.pcache != nil {
		var err error
		if r != nil {
			buf, err = flat.pcache.GetPageAs(r, int(id))
		} else {
			buf, err = flat.pcache.GetPage(int(id))
		}
		if err != nil {
			return nil, fmt.Errorf("storage: page %d: %w", id, err)
		}
		return buf, nil
	}
	return flat.pages[id], nil
}

// Resident returns page id's buffer if reading it needs no I/O — a delta
// overlay or appended page, a page of an eager base, or a frame the page
// cache holds — without faulting it and without touching the cache's
// counters or recency. Safe for concurrent use.
func (b *Base) Resident(id PageID) ([]byte, bool) {
	if int(id) >= b.n {
		return nil, false
	}
	buf, flat := b.owner(id)
	switch {
	case flat == nil:
		return buf, true
	case flat.pcache != nil:
		return flat.pcache.Resident(int(id))
	}
	return flat.pages[id], true
}

// owner walks the delta chain down to the layer that holds page id,
// which must be in range: it returns the page's buffer when a delta
// overlays or appended it, and otherwise the flat base underneath.
func (b *Base) owner(id PageID) ([]byte, *Base) {
	for ; b.delta != nil; b = b.delta.parent {
		if buf, ok := b.delta.overlay[id]; ok {
			return buf, nil
		}
		if pn := b.delta.parent.n; int(id) >= pn {
			return b.delta.appended[int(id)-pn], nil
		}
	}
	return nil, b
}

// Cache returns the page cache the base's flat root reads through: the
// base's own for a loaded base, its chain's root's for a delta base, nil
// when the root is eager.
func (b *Base) Cache() PageCache {
	for b.delta != nil {
		b = b.delta.parent
	}
	return b.pcache
}

// Fork returns a read-only disk over the base: reads alias the shared
// frozen buffers with zero copying, writes and allocations fail with
// ErrReadOnly.
func (b *Base) Fork() *Disk {
	return &Disk{base: b, capacity: b.capacity, readOnly: true}
}

// ForkMutable returns a writable copy-on-write disk over the base: a base
// page is copied into the fork's private overlay on its first read, so the
// within-session buffer-aliasing discipline (mutate the Read buffer, then
// Write) holds for the fork without ever touching the shared image. Pages
// the fork allocates are private too, with ids continuing past the base.
func (b *Base) ForkMutable() *Disk {
	return &Disk{base: b, capacity: b.capacity, overlay: make(map[PageID][]byte)}
}

// Disk is the simulated disk: a flat array of 4 KB pages kept in process
// memory. It stands in for the paper's 2 GB SCSI drive; its capacity check
// even reproduces §3.1's "Buy Big!" lesson if you ask it to.
//
// A Disk runs in one of three modes. An exclusive disk (base == nil) owns
// all its pages — today's single-owner behavior. Freeze turns an exclusive
// disk into a shared Base, from which Base.Fork gives read-only disks
// (shared buffers, no writes) and Base.ForkMutable gives copy-on-write
// disks (private overlay + private allocations).
type Disk struct {
	pages    [][]byte // exclusive: all pages; fork: pages allocated after the base
	capacity int      // max pages; 0 means unbounded

	base     *Base             // shared frozen image; nil for an exclusive disk
	overlay  map[PageID][]byte // COW copies of base pages; nil unless mutable fork
	readOnly bool
}

// NewDisk returns an empty disk. capacityBytes of 0 means unbounded;
// otherwise allocation beyond the capacity fails like a full disk.
func NewDisk(capacityBytes int64) *Disk {
	d := &Disk{}
	if capacityBytes > 0 {
		d.capacity = int(capacityBytes / PageSize)
	}
	return d
}

// ConcurrentReads reports whether Read is safe to call from multiple
// goroutines with no writer: true for an exclusive disk (reads index an
// append-only slice) and a read-only fork (reads go to the immutable Base,
// whose page cache is safe for concurrent use); false for a mutable fork, whose reads
// populate the private copy-on-write overlay map.
func (d *Disk) ConcurrentReads() bool { return d.overlay == nil }

// baseLen returns the number of pages owned by the shared base.
func (d *Disk) baseLen() int {
	if d.base == nil {
		return 0
	}
	return d.base.n
}

// NumPages returns the number of allocated pages, shared and private.
func (d *Disk) NumPages() int { return d.baseLen() + len(d.pages) }

// Freeze seals an exclusive disk into an immutable Base and leaves the disk
// itself a read-only fork of it, so the builder keeps working for queries
// but can never mutate the now-shared buffers. Forked disks cannot freeze.
func (d *Disk) Freeze() (*Base, error) {
	if d.base != nil {
		return nil, fmt.Errorf("storage: cannot freeze a forked disk")
	}
	b := &Base{pages: d.pages[:len(d.pages):len(d.pages)], n: len(d.pages), capacity: d.capacity}
	d.pages = nil
	d.base = b
	d.readOnly = true
	return b, nil
}

// Read implements Pager for a caller that names no buffer-pool reader.
// On a mutable fork, the first read of a base page copies it into the
// private overlay so later in-place mutation cannot reach the shared
// image; the copy happens on read, not write, because callers mutate the
// returned buffer before calling Write.
func (d *Disk) Read(id PageID) ([]byte, error) { return d.ReadAs(nil, id) }

// ReadAs is Read for reader r (nil names none): a page of a pool-backed
// base stays valid until r quiesces or goes offline. A mutable fork's
// copy-on-write source is read for r and copied at once, so the fork
// keeps no alias of it.
func (d *Disk) ReadAs(r *bufpool.Reader, id PageID) ([]byte, error) {
	if bl := d.baseLen(); int(id) < bl {
		if d.readOnly {
			return d.base.PageAs(r, id)
		}
		if buf, ok := d.overlay[id]; ok {
			return buf, nil
		}
		src, err := d.base.PageAs(r, id)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, PageSize)
		copy(buf, src)
		d.overlay[id] = buf
		return buf, nil
	} else if idx := int(id) - bl; idx < len(d.pages) {
		return d.pages[idx], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrNoPage, id)
}

// Write implements Pager. On the raw disk the buffer is the storage, so
// this is a no-op beyond validation.
func (d *Disk) Write(id PageID) error {
	if d.readOnly {
		return fmt.Errorf("%w: write of page %d", ErrReadOnly, id)
	}
	if int(id) >= d.NumPages() {
		return fmt.Errorf("%w: %d", ErrNoPage, id)
	}
	return nil
}

// Alloc implements Pager. A fork's allocations are private; their ids
// continue past the shared base, so record ids minted by different forks of
// the same base coincide — exactly as if each fork were a private copy.
func (d *Disk) Alloc() (PageID, []byte, error) {
	if d.readOnly {
		return 0, nil, fmt.Errorf("%w: alloc", ErrReadOnly)
	}
	if d.capacity > 0 && d.NumPages() >= d.capacity {
		return 0, nil, fmt.Errorf("storage: disk full (%d pages): buy big, think sum not max", d.capacity)
	}
	buf := make([]byte, PageSize)
	d.pages = append(d.pages, buf)
	return PageID(d.NumPages() - 1), buf, nil
}
