package engine

import (
	"fmt"
	"sort"
	"sync"

	"treebench/internal/storage"
)

// MVCC snapshot chain. A Snapshot used to be the end of the line: mutable
// forks were throwaways. Publish turns a mutable fork into the *next*
// version — a new immutable Snapshot over a storage.DeltaBase that layers
// the fork's copy-on-write overlay and appended pages over the version it
// forked from. Readers pin the version they forked and are never blocked:
// a commit builds a new head beside them, sharing every page the commit
// did not touch.

// Publish seals a mutable forked session into a new immutable Snapshot,
// the commit-side sibling of Freeze: the session's private COW overlay
// and appended pages are promoted into a shared DeltaBase (after which
// the session itself is read-only), and the session's catalog — which
// ForkMutable deep-copied precisely so schema evolution could mutate it
// — becomes the new version's catalog. The returned Delta is what the
// commit writes to the WAL.
//
// The snapshot is born primed: an index the session never updated still
// holds the histogram pointer its fork inherited from the parent version,
// and the ones its updates invalidated are rebuilt here, once, by the
// writer (PrimeStats) — so no reader of the new version ever pays an
// ANALYZE scan for a commit that did not touch the index. Priming runs
// after the overlay is promoted, so an error from it (an index of the new
// version that cannot be scanned) leaves the session spent: the wave is
// lost, nothing was appended or logged, and the caller's head is unchanged.
//
// Publish does not link the snapshot into any chain or assign a version;
// SetLineage and Chain.Append do, in commit order.
func (db *Session) Publish() (*Snapshot, *storage.Delta, error) {
	if db.readOnly {
		return nil, nil, ErrReadOnlySession
	}
	if db.Store.Disk.ConcurrentReads() {
		return nil, nil, fmt.Errorf("engine: publish of an exclusive session; use Freeze")
	}
	base, delta, err := db.Store.Disk.Promote()
	if err != nil {
		return nil, nil, err
	}
	db.readOnly = true
	sn := &Snapshot{
		base:    base,
		store:   db.Store,
		machine: db.Machine,
		model:   db.Meter.Model,
		mode:    db.Txns.Mode(),
		classes: db.Classes,
		extents: db.extents,
		indexes: db.indexes,
		nextIdx: db.nextIdx,
		roots:   db.roots,
		rels:    db.relationships,
	}
	if err := sn.PrimeStats(); err != nil {
		return nil, nil, err
	}
	return sn, delta, nil
}

// Version returns the snapshot's position in its chain (0 for a root or
// any snapshot never committed through a Chain).
func (sn *Snapshot) Version() uint64 { return sn.version }

// ParentVersion returns the version this snapshot was committed over
// (equal to Version for a root).
func (sn *Snapshot) ParentVersion() uint64 {
	if sn.parent == nil {
		return sn.version
	}
	return sn.parent.version
}

// DeltaPages returns the number of pages the snapshot's commit carried
// (0 for a root or a compacted snapshot).
func (sn *Snapshot) DeltaPages() int { return sn.deltaPages }

// WalOff returns the WAL offset of the snapshot's commit record (0 for a
// root or a compacted snapshot).
func (sn *Snapshot) WalOff() int64 { return sn.walOff }

// SetLineage stamps chain metadata on a snapshot restored from disk or
// WAL replay, before it is shared.
func (sn *Snapshot) SetLineage(version uint64, deltaPages int, walOff int64) {
	sn.version, sn.deltaPages, sn.walOff = version, deltaPages, walOff
}

// ChainVersion is one chain entry as reported to stats and tooling.
type ChainVersion struct {
	Version    uint64
	Parent     uint64
	DeltaPages int   // pages the commit shipped (0 for root/compacted)
	WalOff     int64 // offset of the commit record in the WAL
	Pages      int   // total pages visible at this version
	Pins       int   // sessions currently holding the version
	Head       bool
}

// Chain is the live version chain of one database: the head every new
// fork sees, the still-referenced history behind it, and the pin counts
// that keep history alive. Commits are serialized by the chain — version
// numbers are assigned under its lock in commit order, which together
// with the deterministic wave protocol upstream makes the head state a
// pure function of how many commits happened, never of who raced whom.
type Chain struct {
	mu       sync.Mutex
	head     *Snapshot
	versions map[uint64]*Snapshot
	pins     map[uint64]int
}

// NewChain roots a chain at an existing snapshot (freshly frozen, loaded
// from disk, or rebuilt by WAL replay — its stamped version carries
// over).
func NewChain(root *Snapshot) *Chain {
	return &Chain{
		head:     root,
		versions: map[uint64]*Snapshot{root.version: root},
		pins:     map[uint64]int{},
	}
}

// Head returns the current head version.
func (c *Chain) Head() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head
}

// Pin returns the current head and marks it referenced until Unpin. A
// pinned version survives GC even after later commits replace the head:
// this is the reader side of MVCC — fork what you pinned and nothing a
// writer does can reach your pages.
func (c *Chain) Pin() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pins[c.head.version]++
	return c.head
}

// Unpin releases a pin taken with Pin.
func (c *Chain) Unpin(sn *Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.pins[sn.version]; n > 1 {
		c.pins[sn.version] = n - 1
	} else {
		delete(c.pins, sn.version)
	}
}

// Append links an already-built snapshot — published by a commit or
// rebuilt by WAL replay — as the next version and installs it as the new
// head: the one way a version enters a chain. The snapshot's lineage must
// already be stamped; a version that does not follow the head (a commit
// built on a stale parent) is rejected rather than silently replacing the
// head it would overwrite. The caller serializes fork-apply-publish-append
// sequences (the chain store's apply lock).
func (c *Chain) Append(sn *Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sn.version != c.head.version+1 {
		return fmt.Errorf("engine: append version %d onto head %d", sn.version, c.head.version)
	}
	sn.parent = c.head
	c.versions[sn.version] = sn
	c.head = sn
	return nil
}

// ReplaceHead swaps in a compacted equivalent of the current head: same
// version number, same logical content, flat page image instead of a
// delta chain. Readers pinned on old versions keep them; everyone
// forking after this point gets the compacted image, and once the pins
// drain, GC lets the whole delta chain go.
func (c *Chain) ReplaceHead(sn *Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sn.version != c.head.version {
		return fmt.Errorf("engine: compacted snapshot is version %d but head is %d", sn.version, c.head.version)
	}
	// Readers pinned on the old head keep their own pointer to it; their
	// Unpins resolve by version number either way.
	c.versions[sn.version] = sn
	c.head = sn
	return nil
}

// GC drops every version that is neither the head nor pinned nor the
// ancestor of a pinned version, returning how many were dropped. Page
// buffers shared through delta parents stay alive as long as any child
// needs them — GC trims the catalog map so Go's collector can reclaim
// versions no session can reach anymore.
func (c *Chain) GC() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := map[uint64]bool{c.head.version: true}
	for v := range c.pins {
		keep[v] = true
	}
	dropped := 0
	for v := range c.versions {
		if !keep[v] {
			delete(c.versions, v)
			dropped++
		}
	}
	return dropped
}

// Len returns the number of live (un-GC'd) versions.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.versions)
}

// Versions reports the live chain in ascending version order.
func (c *Chain) Versions() []ChainVersion {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChainVersion, 0, len(c.versions))
	for v, sn := range c.versions {
		out = append(out, ChainVersion{
			Version:    v,
			Parent:     sn.ParentVersion(),
			DeltaPages: sn.deltaPages,
			WalOff:     sn.walOff,
			Pages:      sn.Pages(),
			Pins:       c.pins[v],
			Head:       sn == c.head,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}
