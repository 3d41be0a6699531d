// Package engine assembles the storage, cache, object, collection, index
// and transaction layers into a Database: the session-level view the query
// algorithms, the Derby generator and the benchmark harness all share.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"treebench/internal/backend"
	"treebench/internal/cache"
	"treebench/internal/histogram"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// ErrUnknown is returned for lookups of unknown extents or indexes.
var ErrUnknown = errors.New("engine: unknown")

// Extent is a named collection of all objects of one class, stored in one
// file (class clustering) or sharing a file with other extents (random and
// composition organizations).
type Extent struct {
	Name  string
	Class *object.Class
	File  *storage.File

	// IndexedAtCreation makes newly inserted objects carry the 8-slot
	// index header (§3.2: objects born into an indexed collection).
	IndexedAtCreation bool

	// Count is the number of live objects.
	Count int

	indexes []*Index
}

// Indexes returns the indexes defined over the extent.
func (e *Extent) Indexes() []*Index { return e.indexes }

// Index is an index over one integer attribute of an extent. Backend is
// the pluggable structure behind it (in-memory B+-tree by default; see
// internal/backend) — every implementation delivers entries in the same
// (key, rid) order, so which one is plugged in changes costs, never
// results.
type Index struct {
	Backend index.Backend
	Extent  *Extent
	Attr    string
	attrIdx int

	// Clustered records whether the index key order matches the extent's
	// physical order (true for upin/mrn under class and composition
	// clustering; false for num, and for everything under random
	// organization). It is metadata for planners and reports; the actual
	// access pattern emerges from the stored Rids either way.
	Clustered bool

	// stats caches the equi-depth histogram built by Stats; updates
	// invalidate it.
	stats *histogram.Histogram
}

// statsBuckets is the histogram resolution ANALYZE-style statistics use.
const statsBuckets = 64

// Stats returns the index's equi-depth key histogram, building it on first
// use by scanning the leaves (paying index I/O like an ANALYZE would).
// Inserts and deletes through the engine invalidate it.
func (ix *Index) Stats(p storage.Pager) (*histogram.Histogram, error) {
	if ix.stats != nil {
		return ix.stats, nil
	}
	keys := make([]int64, 0, ix.Backend.Len())
	err := ix.Backend.Scan(p, -1<<62, 1<<62, func(e index.Entry) (bool, error) {
		keys = append(keys, e.Key)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	ix.stats = histogram.Build(keys, statsBuckets)
	return ix.stats, nil
}

// InvalidateStats drops the cached histogram (called on index updates).
func (ix *Index) InvalidateStats() { ix.stats = nil }

// Session is one execution context over a database: the page caches, the
// meter, the handle table and transaction state one client pays for, plus
// its private view of the catalog (extents, indexes). A Session
// built by New owns its database exclusively (the paper's setup: a single
// client and its server on one machine); Freeze turns that database into
// an immutable Snapshot from which further Sessions fork in O(1).
type Session struct {
	Store   *storage.Store
	Meter   *sim.Meter
	Machine sim.Machine
	Server  *cache.Server
	Client  *cache.Client
	Classes *object.Registry
	Handles *object.Table
	Txns    *txn.Manager

	extents       map[string]*Extent
	indexes       map[uint32]*Index
	nextIdx       uint32
	relationships []*Relationship

	// indexBackend is the backend kind CreateIndex builds ("" = the
	// default in-memory B+-tree). It is part of the database's identity:
	// Freeze records it and forks inherit it.
	indexBackend string

	// queryJobs is the intra-query worker count (0 = DefaultQueryJobs);
	// chunkForks are the persistent per-chunk execution contexts RunChunks
	// lazily creates — chunk i always runs on fork i, so warm-cache state
	// evolves deterministically. ColdRestart empties them and keeps them.
	// See parallel.go.
	queryJobs  int
	chunkForks []*Session

	// batch is the vectorized-execution batch size: records per batch
	// (0 = DefaultBatch, 1 = batches of one through the same operators).
	// Like queryJobs it shapes wall-clock only — simulated accounting is
	// independent of it — and it survives ColdRestart.
	batch int

	// scratch is the operator buffers the session lends (Borrow, Return);
	// lent reports that they are out. Like chunkForks it outlives
	// ColdRestart: a chunk fork keeps its own, so chunk i finds the
	// buffers chunk i of the last query sized, whichever worker runs it.
	// See scratch.go.
	scratch *Scratch
	lent    bool

	// ctx is the execution's deadline and done its cached Done channel
	// (nil: none); see SetContext.
	ctx  context.Context
	done <-chan struct{}

	// readOnly marks a session that shares frozen pages it must never
	// mutate: the builder after Freeze, and every Snapshot.Fork. The guard
	// runs before any shared buffer is touched — the storage layer's
	// ErrReadOnly is only the backstop behind it.
	readOnly bool
}

// Database is the session's historical name, kept as an alias so existing
// callers (and the public facade) keep compiling.
type Database = Session

// ErrReadOnlySession is returned by mutating operations on a read-only
// session.
var ErrReadOnlySession = errors.New("engine: read-only session (forked from a snapshot); use Snapshot.ForkMutable for writes")

// mutable fails with ErrReadOnlySession on a read-only session. Every
// mutating engine operation calls it first: pages are mutated in place
// before Write is ever called, so the check must run before any buffer is
// handed out.
func (db *Session) mutable() error {
	if db.readOnly {
		return ErrReadOnlySession
	}
	return nil
}

// New creates an empty database with the given hardware model and
// transaction mode.
func New(machine sim.Machine, model sim.CostModel, mode txn.Mode) *Session {
	meter := sim.NewMeter(model)
	store := storage.NewStore(0)
	srv, cli := cache.Hierarchy(store.Disk, meter, machine)
	classes := object.NewRegistry()
	return &Database{
		Store:   store,
		Meter:   meter,
		Machine: machine,
		Server:  srv,
		Client:  cli,
		Classes: classes,
		Handles: object.NewTable(meter, cli, classes),
		Txns:    txn.NewManager(meter, cli, mode),
		extents: make(map[string]*Extent),
		indexes: make(map[uint32]*Index),
		nextIdx: 1,
	}
}

// ColdRestart empties both caches and the handle-sharing table, simulating
// the paper's server shutdown between measured queries, and resets the
// meter so the next query is measured from zero on a cold system.
//
// Chunk forks hold warm caches of their own and a cold system has none, so
// each retained fork is emptied the same way and kept: an emptied fork
// that runChunks re-binds is indistinguishable from a new ReadFork, and
// the next query does not rebuild eight cache hierarchies to find that out.
func (db *Session) ColdRestart() {
	db.shutdown()
	db.Meter.Reset()
	for _, f := range db.chunkForks {
		if f != nil {
			f.shutdown()
		}
	}
}

// shutdown empties the session's two cache levels (keeping their memory)
// and gives it a fresh handle table. What it charges a fork's meter — the
// write-back of dirty pages, of which a read fork has none — is discarded
// by the Reset every use of a chunk fork starts with.
func (db *Session) shutdown() {
	db.Client.Shutdown()
	db.Handles = object.NewTable(db.Meter, db.Client, db.Classes)
}

// CreateExtent registers a class and creates its extent backed by the named
// file. Several extents may share one file (random/composition layouts):
// pass the name of an existing file to join it.
func (db *Session) CreateExtent(name string, class *object.Class, fileName string) (*Extent, error) {
	if err := db.mutable(); err != nil {
		return nil, err
	}
	if _, ok := db.extents[name]; ok {
		return nil, fmt.Errorf("%w: extent %q already exists", ErrUnknown, name)
	}
	if db.Classes.ByName(class.Name) == nil {
		if err := db.Classes.Register(class); err != nil {
			return nil, err
		}
	}
	f, err := db.Store.File(fileName)
	if errors.Is(err, storage.ErrBadFile) {
		f, err = db.Store.CreateFile(fileName)
	}
	if err != nil {
		return nil, err
	}
	e := &Extent{Name: name, Class: class, File: f}
	db.extents[name] = e
	return e, nil
}

// Extent returns the named extent.
func (db *Session) Extent(name string) (*Extent, error) {
	e, ok := db.extents[name]
	if !ok {
		return nil, fmt.Errorf("%w extent %q", ErrUnknown, name)
	}
	return e, nil
}

// Extents returns all extent names, sorted.
func (db *Session) Extents() []string {
	out := make([]string, 0, len(db.extents))
	for n := range db.extents {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert appends a new object to the extent, maintaining its indexes. The
// header gets index slots if the extent is (or was made) indexed.
func (db *Session) Insert(tx *txn.Txn, e *Extent, values []object.Value) (storage.Rid, error) {
	return db.InsertAs(tx, e, e.Class, values)
}

// InsertAs appends an object of cls — e.Class or any subclass of it — to
// the extent (extents are polymorphic, per the ODMG model §4.4 implies
// with "exact type (because of inheritance)").
func (db *Session) InsertAs(tx *txn.Txn, e *Extent, cls *object.Class, values []object.Value) (storage.Rid, error) {
	if err := db.mutable(); err != nil {
		return storage.Rid{}, err
	}
	if !cls.IsSubclassOf(e.Class) {
		return storage.Rid{}, fmt.Errorf("engine: class %s is not a kind of %s", cls.Name, e.Class.Name)
	}
	if db.Classes.ByName(cls.Name) == nil {
		if err := db.Classes.Register(cls); err != nil {
			return storage.Rid{}, err
		}
	}
	slots := 0
	if e.IndexedAtCreation || len(e.indexes) > 0 {
		slots = object.DefaultIndexSlots
	}
	rec, err := object.Encode(cls, values, slots)
	if err != nil {
		return storage.Rid{}, err
	}
	// Pre-mark index membership in the header.
	for _, ix := range e.indexes {
		rec, _, err = object.AddIndexRef(rec, ix.Backend.ID())
		if err != nil {
			return storage.Rid{}, err
		}
	}
	rid, err := e.File.Append(db.Client, rec)
	if err != nil {
		return storage.Rid{}, err
	}
	if tx != nil {
		if err := tx.NoteCreate(len(rec)); err != nil {
			return storage.Rid{}, err
		}
	}
	e.Count++
	// Maintain indexes.
	for _, ix := range e.indexes {
		v := values[ix.attrIdx]
		if err := ix.Backend.Insert(db.Client, index.Entry{Key: keyOf(v), Rid: rid}); err != nil {
			return storage.Rid{}, err
		}
		ix.InvalidateStats()
	}
	return rid, nil
}

// keyOf maps an attribute value to its index key. Integer attributes key
// on their value; reference attributes key on the referenced object's
// physical identifier, which is how O2 indexes a collection "by their
// primary care provider attribute" (§4.4).
func keyOf(v object.Value) int64 {
	switch v.Kind {
	case object.KindRef, object.KindSet:
		return int64(v.Ref.Page)<<16 | int64(v.Ref.Slot)
	default:
		return v.Int // KindInt and KindChar carry Int
	}
}

// RefKey returns the index key a reference value maps to, for looking up
// ref-indexed collections.
func RefKey(r storage.Rid) int64 { return int64(r.Page)<<16 | int64(r.Slot) }

// CreateIndex builds an index on an integer attribute of e.
//
// If the extent is empty this is the cheap "first index before load" path:
// the tree is created empty, e is marked indexed, and subsequent inserts
// are born with header slots and maintain the tree incrementally.
//
// If the extent is populated, this is §3.2's expensive path: every object
// must record its index membership, and objects born without header slots
// grow — forcing the system "to reallocate all objects on disk", which both
// takes time and destroys the physical organization. The relocation count
// is returned for the loading experiments.
func (db *Session) CreateIndex(e *Extent, attr string, clustered bool) (*Index, int, error) {
	if err := db.mutable(); err != nil {
		return nil, 0, err
	}
	ai := e.Class.AttrIndex(attr)
	if ai < 0 {
		return nil, 0, fmt.Errorf("%w attribute %s.%s", ErrUnknown, e.Class.Name, attr)
	}
	switch e.Class.Attrs[ai].Kind {
	case object.KindInt, object.KindChar, object.KindRef:
	default:
		return nil, 0, fmt.Errorf("engine: cannot index %s attribute %s.%s", e.Class.Attrs[ai].Kind, e.Class.Name, attr)
	}
	for _, ix := range e.indexes {
		if ix.Attr == attr {
			return nil, 0, fmt.Errorf("engine: %s.%s already indexed", e.Name, attr)
		}
	}
	id := db.nextIdx
	db.nextIdx++

	relocations := 0
	var entries []index.Entry
	if e.Count > 0 {
		type pending struct {
			rid storage.Rid
			rec []byte
		}
		var grew []pending
		err := e.File.Scan(db.Client, func(rid storage.Rid, rec []byte) (bool, error) {
			if !db.Classes.Belongs(object.ClassID(rec), e.Class) {
				return true, nil // shared file: skip other classes' objects
			}
			v, err := object.DecodeAttr(e.Class, rec, ai)
			if err != nil {
				return false, err
			}
			entries = append(entries, index.Entry{Key: keyOf(v), Rid: rid})
			newRec, grown, err := object.AddIndexRef(rec, id)
			if err != nil {
				return false, err
			}
			if grown {
				// Deferred: rewriting during the scan would relocate
				// records into pages the scan has not reached yet and
				// visit them twice.
				cp := make([]byte, len(newRec))
				copy(cp, newRec)
				grew = append(grew, pending{rid, cp})
			} else if err := db.Client.Write(rid.Page); err != nil {
				return false, err
			}
			return true, nil
		})
		if err != nil {
			return nil, 0, err
		}
		for _, g := range grew {
			relocated, err := e.File.Update(db.Client, g.rid, g.rec)
			if err != nil {
				return nil, 0, err
			}
			if relocated {
				relocations++
			}
		}
	}
	be, err := backend.Build(db.indexBackend, db.Client, id, fmt.Sprintf("%s.%s", e.Name, attr), entries)
	if err != nil {
		return nil, 0, err
	}
	ix := &Index{Backend: be, Extent: e, Attr: attr, attrIdx: ai, Clustered: clustered}
	e.indexes = append(e.indexes, ix)
	e.IndexedAtCreation = true
	db.indexes[id] = ix
	return ix, relocations, nil
}

// SetIndexBackend selects the backend kind CreateIndex builds from here
// on ("" or "btree" is the in-memory oracle). It fails before any index
// exists in a different kind: mixing kinds in one database would make
// per-backend accounting ambiguous.
func (db *Session) SetIndexBackend(kind string) error {
	if err := backend.CheckKind(kind); err != nil {
		return err
	}
	db.indexBackend = backend.Normalize(kind)
	return nil
}

// IndexBackend reports the session's backend kind, falling back to the
// kind of an existing index (restored snapshots) and then the default.
func (db *Session) IndexBackend() string {
	if db.indexBackend != "" {
		return db.indexBackend
	}
	for _, ix := range db.indexes {
		return ix.Backend.Kind()
	}
	return backend.DefaultKind
}

// BackendCounters sums the per-backend counters over every index the
// session drives. Addition is commutative, so the map order is
// irrelevant; server metrics record deltas of this around each query.
func (db *Session) BackendCounters() index.BackendCounters {
	var c index.BackendCounters
	for _, ix := range db.indexes {
		c.Add(ix.Backend.Counters())
	}
	return c
}

// IndexOn returns the index over extent.attr, or nil.
func (db *Session) IndexOn(extent, attr string) *Index {
	e, ok := db.extents[extent]
	if !ok {
		return nil
	}
	for _, ix := range e.indexes {
		if ix.Attr == attr {
			return ix
		}
	}
	return nil
}

// UpdateAttr overwrites one attribute of the object at rid, maintaining any
// index on that attribute. This is the §4.4 scenario ("one doctor retires
// and we want to assign nil to all his/her patients"): the object's header
// tells the system which indexes to fix without scanning them all.
func (db *Session) UpdateAttr(tx *txn.Txn, e *Extent, rid storage.Rid, attr string, v object.Value) error {
	if err := db.mutable(); err != nil {
		return err
	}
	ai := e.Class.AttrIndex(attr)
	if ai < 0 {
		return fmt.Errorf("%w attribute %s.%s", ErrUnknown, e.Class.Name, attr)
	}
	rec, err := storage.Get(db.Client, rid)
	if err != nil {
		return err
	}
	old, err := object.DecodeAttr(e.Class, rec, ai)
	if err != nil {
		return err
	}
	// The header's index list tells us which indexes cover this object;
	// fix the ones keyed on attr.
	for _, id := range object.IndexRefs(rec) {
		ix := db.indexes[id]
		if ix == nil || ix.Attr != attr {
			continue
		}
		if _, err := ix.Backend.Delete(db.Client, index.Entry{Key: keyOf(old), Rid: rid}); err != nil {
			return err
		}
		if err := ix.Backend.Insert(db.Client, index.Entry{Key: keyOf(v), Rid: rid}); err != nil {
			return err
		}
		ix.InvalidateStats()
	}
	if err := object.EncodeAttrInPlace(e.Class, rec, ai, v); err != nil {
		return err
	}
	if tx != nil {
		if err := tx.NoteUpdate(len(rec)); err != nil {
			return err
		}
	}
	return db.Client.Write(rid.Page)
}
