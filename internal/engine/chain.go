package engine

import (
	"fmt"
	"sync/atomic"

	"treebench/internal/storage"
)

// MVCC snapshot chain. A Snapshot used to be the end of the line: mutable
// forks were throwaways. Publish turns a mutable fork into the *next*
// version — a new immutable Snapshot over a storage.DeltaBase that layers
// the fork's copy-on-write overlay and appended pages over the version it
// forked from. A reader holds the version it forked by reference and is
// never blocked: a commit builds a new head beside it, sharing every page
// the commit did not touch, and a version nobody references any more is
// Go's collector's to reclaim.

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
func (sn *Snapshot) ParentVersion() uint64 { return sn.parentVersion }

// DeltaPages returns the number of pages the snapshot's commit carried
// (0 for a root or a compacted snapshot).
func (sn *Snapshot) DeltaPages() int { return sn.deltaPages }

// WalOff returns the WAL offset of the snapshot's commit record (0 for a
// root or a compacted snapshot).
func (sn *Snapshot) WalOff() int64 { return sn.walOff }

// SetLineage stamps chain metadata on a snapshot restored from disk or
// WAL replay, before it is shared. Its parent is itself until Chain.Append
// links it over the head.
func (sn *Snapshot) SetLineage(version uint64, deltaPages int, walOff int64) {
	sn.version, sn.parentVersion, sn.deltaPages, sn.walOff = version, version, deltaPages, walOff
}

// Chain is the live head of one database's version chain: the snapshot
// every new fork sees. An old version lives only as long as a reader
// holds it; a newer version keeps just the pages its delta layers over,
// never the older snapshot itself. Commits are serialized by the caller
// (the chain store's apply lock), and the head+1 check rejects one built
// on a stale parent, which together with the deterministic wave protocol
// upstream makes the head state a pure function of how many commits
// happened, never of who raced whom.
type Chain struct {
	head atomic.Pointer[Snapshot]
}

// NewChain roots a chain at an existing snapshot (freshly frozen, loaded
// from disk, or rebuilt by WAL replay — its stamped version carries
// over).
func NewChain(root *Snapshot) *Chain {
	c := &Chain{}
	c.head.Store(root)
	return c
}

// Head returns the current head version.
func (c *Chain) Head() *Snapshot { return c.head.Load() }

// Append links an already-built snapshot — published by a commit or
// rebuilt by WAL replay — as the next version and installs it as the new
// head: the one way a version enters a chain. The snapshot's lineage must
// already be stamped; a version that does not follow the head (a commit
// built on a stale parent) is rejected rather than silently replacing the
// head it would overwrite.
func (c *Chain) Append(sn *Snapshot) error {
	head := c.head.Load()
	if sn.version != head.version+1 {
		return fmt.Errorf("engine: append version %d onto head %d", sn.version, head.version)
	}
	sn.parentVersion = head.version
	if !c.head.CompareAndSwap(head, sn) {
		return fmt.Errorf("engine: append version %d raced another commit", sn.version)
	}
	return nil
}

// ReplaceHead swaps in a compacted equivalent of the current head: same
// version number, same logical content, flat page image instead of a
// delta chain. Readers that forked older versions keep them; everyone
// forking after this point gets the compacted image, and once those
// readers let go, the whole delta chain is garbage.
func (c *Chain) ReplaceHead(sn *Snapshot) error {
	head := c.head.Load()
	if sn.version != head.version {
		return fmt.Errorf("engine: compacted snapshot is version %d but head is %d", sn.version, head.version)
	}
	if !c.head.CompareAndSwap(head, sn) {
		return fmt.Errorf("engine: compaction of version %d raced a commit", sn.version)
	}
	return nil
}
