package engine

import (
	"fmt"
	"sort"

	"treebench/internal/backend"
	"treebench/internal/histogram"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Serializable snapshot state: everything an engine.Snapshot holds beyond
// the raw page image, exported as plain data so internal/persist can write
// it to disk and rebuild a bit-identical snapshot without reaching into
// engine internals. Load(Save(snap)) must fork sessions whose every
// reported number matches the original's — that invariant is what keeps
// the split honest.

// IndexState describes one index of an extent. Backend is the full
// pluggable-backend descriptor; Tree repeats its B+-tree half so the
// positionally aligned trees section (and every pre-backend consumer of
// it) stays well-formed — for an LSM it is a synthesized placeholder.
// A zero Backend.Kind means "btree from Tree" for states built by older
// code paths.
type IndexState struct {
	Backend   index.BackendState
	Tree      index.TreeState
	Attr      string
	Clustered bool
	// Stats carries the primed equi-depth histogram (nil when the
	// snapshot was saved unprimed).
	Stats []histogram.BucketState
}

// ExtentState describes one extent and its indexes, in maintenance order.
type ExtentState struct {
	Name              string
	Class             string
	File              string
	IndexedAtCreation bool
	Count             int
	Indexes           []IndexState
}

// RelationshipState describes one declared 1-n relationship.
type RelationshipState struct {
	Parent  string
	SetAttr string
	Child   string
	RefAttr string
}

// SnapshotState is the full serializable catalog of a Snapshot. The page
// image (storage.Base) travels separately — it is the bulk of a snapshot
// and is streamed, not held in a struct.
type SnapshotState struct {
	Machine sim.Machine
	Model   sim.CostModel
	Mode    txn.Mode

	Files   []storage.FileState
	Classes *object.RegistryState
	// Extents is sorted by name; each extent's index order is the
	// builder's maintenance order.
	Extents []ExtentState
	NextIdx uint32
	Rels    []RelationshipState
}

// Base exposes the frozen page image so internal/persist can stream it to
// disk. Callers must treat it as read-only.
func (sn *Snapshot) Base() *storage.Base { return sn.base }

// State exports the snapshot's catalog in a canonical order (extents
// sorted by name), so saving the same snapshot twice produces
// byte-identical files.
func (sn *Snapshot) State() *SnapshotState {
	st := &SnapshotState{
		Machine: sn.machine,
		Model:   sn.model,
		Mode:    sn.mode,
		Files:   sn.store.State(),
		Classes: sn.classes.State(),
		NextIdx: sn.nextIdx,
	}
	names := make([]string, 0, len(sn.extents))
	for name := range sn.extents {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := sn.extents[name]
		es := ExtentState{
			Name:              e.Name,
			Class:             e.Class.Name,
			File:              e.File.Name,
			IndexedAtCreation: e.IndexedAtCreation,
			Count:             e.Count,
		}
		for _, ix := range e.indexes {
			bst := ix.Backend.State()
			es.Indexes = append(es.Indexes, IndexState{
				Backend:   bst,
				Tree:      bst.Tree,
				Attr:      ix.Attr,
				Clustered: ix.Clustered,
				Stats:     ix.stats.State(),
			})
		}
		st.Extents = append(st.Extents, es)
	}
	for _, rel := range sn.rels {
		st.Rels = append(st.Rels, RelationshipState{
			Parent:  rel.Parent.Name,
			SetAttr: rel.SetAttr,
			Child:   rel.Child.Name,
			RefAttr: rel.RefAttr,
		})
	}
	return st
}

// RestoreSnapshot rebuilds a Snapshot over a restored page image. The
// state is validated against itself and the image — dangling class, file,
// attribute or page references fail with an error, never a panic — since
// it may come from an untrusted snapshot file.
func RestoreSnapshot(base *storage.Base, st *SnapshotState) (*Snapshot, error) {
	if st.Classes == nil {
		return nil, fmt.Errorf("engine: snapshot state has no class registry")
	}
	if st.Mode != txn.Standard && st.Mode != txn.NoTransaction {
		return nil, fmt.Errorf("engine: unknown transaction mode %d", st.Mode)
	}
	classes, err := object.RestoreRegistry(st.Classes)
	if err != nil {
		return nil, err
	}
	store, err := storage.RestoreStore(base.Fork(), st.Files)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{
		base:    base,
		store:   store,
		machine: st.Machine,
		model:   st.Model,
		mode:    st.Mode,
		classes: classes,
		extents: make(map[string]*Extent, len(st.Extents)),
		indexes: make(map[uint32]*Index, len(st.Extents)),
		nextIdx: st.NextIdx,
	}
	for _, es := range st.Extents {
		if _, dup := sn.extents[es.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate extent %q in snapshot state", ErrUnknown, es.Name)
		}
		cls := classes.ByName(es.Class)
		if cls == nil {
			return nil, fmt.Errorf("%w class %q for extent %q", ErrUnknown, es.Class, es.Name)
		}
		f, err := store.File(es.File)
		if err != nil {
			return nil, err
		}
		e := &Extent{
			Name:              es.Name,
			Class:             cls,
			File:              f,
			IndexedAtCreation: es.IndexedAtCreation,
			Count:             es.Count,
		}
		for _, is := range es.Indexes {
			bst := is.Backend
			if bst.Kind == "" {
				// State written before (or without) the backends
				// section: the tree descriptor is the whole story.
				bst = index.BackendState{Kind: backend.KindBTree, Tree: is.Tree}
			}
			be, err := backend.Restore(bst, base.NumPages())
			if err != nil {
				return nil, err
			}
			ai := cls.AttrIndex(is.Attr)
			if ai < 0 {
				return nil, fmt.Errorf("%w attribute %s.%s for index %s", ErrUnknown, cls.Name, is.Attr, be.Name())
			}
			stats, err := histogram.Restore(is.Stats)
			if err != nil {
				return nil, err
			}
			ix := &Index{Backend: be, Extent: e, Attr: is.Attr, attrIdx: ai, Clustered: is.Clustered, stats: stats}
			if _, dup := sn.indexes[be.ID()]; dup {
				return nil, fmt.Errorf("engine: duplicate index id %d in snapshot state", be.ID())
			}
			e.indexes = append(e.indexes, ix)
			sn.indexes[be.ID()] = ix
			if sn.indexBackend == "" {
				sn.indexBackend = be.Kind()
			}
		}
		sn.extents[es.Name] = e
	}
	for _, rs := range st.Rels {
		parent, ok := sn.extents[rs.Parent]
		if !ok {
			return nil, fmt.Errorf("%w extent %q in relationship", ErrUnknown, rs.Parent)
		}
		child, ok := sn.extents[rs.Child]
		if !ok {
			return nil, fmt.Errorf("%w extent %q in relationship", ErrUnknown, rs.Child)
		}
		si := parent.Class.AttrIndex(rs.SetAttr)
		if si < 0 || parent.Class.Attrs[si].Kind != object.KindSet {
			return nil, fmt.Errorf("engine: %s.%s is not a set attribute", parent.Class.Name, rs.SetAttr)
		}
		ri := child.Class.AttrIndex(rs.RefAttr)
		if ri < 0 || child.Class.Attrs[ri].Kind != object.KindRef {
			return nil, fmt.Errorf("engine: %s.%s is not a reference attribute", child.Class.Name, rs.RefAttr)
		}
		sn.rels = append(sn.rels, &Relationship{
			Parent: parent, SetAttr: rs.SetAttr, Child: child, RefAttr: rs.RefAttr,
			setIdx: si, refIdx: ri,
		})
	}
	return sn, nil
}
