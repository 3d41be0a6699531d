package engine

import (
	"treebench/internal/cache"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Snapshot is the immutable, shareable half of a database: the frozen page
// image (data, collections, index nodes) plus the catalog that describes
// it — classes, extents, indexes, relationships, and any primed
// histograms. It is what the generator produces; everything a session pays
// to *use* the database (caches, meter, handles, transactions) lives in
// the Sessions forked from it.
//
// A Snapshot is safe for concurrent use: Fork and ForkMutable only read
// it, and nothing mutates it once it is shared. Before that, PrimeStats
// fills in the histograms it lacks — Publish does so for every version a
// commit creates, and whoever freezes or loads a root does so once.
type Snapshot struct {
	base    *storage.Base
	store   *storage.Store
	machine sim.Machine
	model   sim.CostModel
	mode    txn.Mode

	classes      *object.Registry
	extents      map[string]*Extent
	indexes      map[uint32]*Index
	nextIdx      uint32
	rels         []*Relationship
	indexBackend string

	// Chain lineage (see chain.go): position in the MVCC version chain,
	// the version committed over, and the commit's physical footprint.
	// All zero for a plain frozen snapshot that was never committed.
	version       uint64
	parentVersion uint64
	deltaPages    int
	walOff        int64
}

// Freeze seals the session's database into an immutable Snapshot. The
// session itself becomes read-only — it keeps answering queries over the
// now-shared pages, but every mutating operation fails with
// ErrReadOnlySession from here on. Freezing never primes histograms or
// touches the caches, so a session forked from the snapshot is
// byte-identical to the builder after a ColdRestart.
func (db *Session) Freeze() (*Snapshot, error) {
	base, err := db.Store.Freeze()
	if err != nil {
		return nil, err
	}
	db.readOnly = true
	return &Snapshot{
		base:         base,
		store:        db.Store,
		machine:      db.Machine,
		model:        db.Meter.Model,
		mode:         db.Txns.Mode(),
		classes:      db.Classes,
		extents:      db.extents,
		indexes:      db.indexes,
		nextIdx:      db.nextIdx,
		rels:         db.relationships,
		indexBackend: db.IndexBackend(),
	}, nil
}

// IndexBackend reports the backend kind the snapshot's indexes use.
func (sn *Snapshot) IndexBackend() string {
	for _, ix := range sn.indexes {
		return ix.Backend.Kind()
	}
	return sn.indexBackend
}

// BackendCounters sums the per-backend counters over the snapshot's
// indexes. Clone resets counters, so a chain head's totals are exactly
// the activity of the wave that published it — the server's commit path
// records them as that commit's backend delta.
func (sn *Snapshot) BackendCounters() index.BackendCounters {
	var c index.BackendCounters
	for _, ix := range sn.indexes {
		c.Add(ix.Backend.Counters())
	}
	return c
}

// Pages returns the number of frozen pages shared by all forks.
func (sn *Snapshot) Pages() int { return sn.base.NumPages() }

// Bytes returns the physical size of the shared page image.
func (sn *Snapshot) Bytes() int64 { return sn.base.Bytes() }

// Fork returns a read-only session over the snapshot: fresh caches, meter,
// handle table and transaction state, sharing the frozen pages physically
// (zero copies). Forking costs O(catalog) — files, extents, index
// descriptors — never O(data). A fresh fork is semantically a ColdRestart
// of the builder: its first query reports exactly the numbers the builder
// would.
func (sn *Snapshot) Fork() *Session { return sn.fork(true) }

// ForkMutable returns a writable session over the snapshot. Reads share
// the frozen pages until first touch, then copy them into the session's
// private overlay (copy-on-write); appends and index builds allocate
// private pages whose ids continue past the base, so a mutable fork
// behaves exactly like a private deep copy of the database — without
// paying for one. The class graph is deep-copied too, since schema
// evolution mutates classes in place.
func (sn *Snapshot) ForkMutable() *Session { return sn.fork(false) }

func (sn *Snapshot) fork(readOnly bool) *Session {
	var disk *storage.Disk
	if readOnly {
		disk = sn.base.Fork()
	} else {
		disk = sn.base.ForkMutable()
	}
	store := sn.store.Fork(disk)
	meter := sim.NewMeter(sn.model)
	srv, cli := cache.Hierarchy(disk, meter, sn.machine)

	classes := sn.classes
	var remap func(*object.Class) *object.Class
	if !readOnly {
		classes, remap = sn.classes.Clone()
	}
	db := &Session{
		Store:        store,
		Meter:        meter,
		Machine:      sn.machine,
		Server:       srv,
		Client:       cli,
		Classes:      classes,
		Handles:      object.NewTable(meter, cli, classes),
		Txns:         txn.NewManager(meter, cli, sn.mode),
		extents:      make(map[string]*Extent, len(sn.extents)),
		indexes:      make(map[uint32]*Index, len(sn.indexes)),
		nextIdx:      sn.nextIdx,
		readOnly:     readOnly,
		indexBackend: sn.indexBackend,
	}
	for name, e := range sn.extents {
		cls := e.Class
		if remap != nil {
			cls = remap(cls)
		}
		f, err := store.File(e.File.Name)
		if err != nil {
			// The catalog referenced the file at freeze time; a forked
			// store clones every file, so this cannot happen.
			panic("engine: fork lost file " + e.File.Name)
		}
		db.extents[name] = &Extent{
			Name:              e.Name,
			Class:             cls,
			File:              f,
			IndexedAtCreation: e.IndexedAtCreation,
			Count:             e.Count,
		}
	}
	// Clone indexes through each extent's own slice so a mutable fork
	// maintains them in the same deterministic order the builder did (the
	// snapshot's id-keyed map would randomize it).
	for name, e := range sn.extents {
		ne := db.extents[name]
		for _, ix := range e.indexes {
			nix := &Index{
				Backend:   ix.Backend.Clone(),
				Extent:    ne,
				Attr:      ix.Attr,
				attrIdx:   ix.attrIdx,
				Clustered: ix.Clustered,
				stats:     ix.stats, // histograms are immutable once built
			}
			ne.indexes = append(ne.indexes, nix)
			db.indexes[nix.Backend.ID()] = nix
		}
	}
	for _, rel := range sn.rels {
		db.relationships = append(db.relationships, &Relationship{
			Parent:  db.extents[rel.Parent.Name],
			SetAttr: rel.SetAttr,
			Child:   db.extents[rel.Child.Name],
			RefAttr: rel.RefAttr,
			setIdx:  rel.setIdx,
			refIdx:  rel.refIdx,
		})
	}
	return db
}

// PrimeStats builds the equi-depth histogram of every index that has none
// on a throwaway fork and installs the results in the snapshot, so sessions
// forked afterwards inherit planner statistics instead of each paying the
// lazy ANALYZE scan. Indexes that are already primed are left alone: a
// version published by a commit rebuilds only what the commit invalidated,
// and a fully primed snapshot costs a catalog walk — no fork, no write.
// Call it before the snapshot is shared. It never changes what a session
// reports: histogram priming already happens (per session) in session.New,
// followed by a ColdRestart that discards its cost.
func (sn *Snapshot) PrimeStats() error {
	var f *Session
	for name, e := range sn.extents {
		for i, ix := range e.indexes {
			if ix.stats != nil {
				continue
			}
			if f == nil {
				f = sn.fork(true)
				defer f.Offline()
			}
			// The fork copied the nil, so this scans and builds.
			h, err := f.extents[name].indexes[i].Stats(f.Client)
			if err != nil {
				return err
			}
			ix.stats = h
		}
	}
	return nil
}
