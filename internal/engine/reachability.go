package engine

import (
	"fmt"

	"treebench/internal/collection"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/storage"
)

// Persistence by reachability (§4.4: O2 offers "persistence by
// attachement", which is why every object carries a persistence flag the
// Handle duplicates). Named roots anchor the database; a sweep marks every
// object reachable from them through references and collections, and the
// collector removes the rest — maintaining their indexes through the
// header membership lists, exactly the §4.4 mechanism ("How will the
// system know which index to update unless each patient carries that
// information?").

// SetRoot registers (or moves) a named persistence root.
func (db *Session) SetRoot(name string, rid storage.Rid) {
	if db.roots == nil {
		db.roots = make(map[string]storage.Rid)
	}
	db.roots[name] = rid
}

// RemoveRoot drops a named root. Objects only it reached become garbage at
// the next sweep.
func (db *Session) RemoveRoot(name string) {
	delete(db.roots, name)
}

// Roots returns the named roots.
func (db *Session) Roots() map[string]storage.Rid {
	out := make(map[string]storage.Rid, len(db.roots))
	for k, v := range db.roots {
		out[k] = v
	}
	return out
}

// SweepReport summarizes a reachability sweep / collection.
type SweepReport struct {
	Reachable int
	Garbage   int
	// Collected is how many garbage objects were deleted (0 for a
	// mark-only sweep).
	Collected int
	// IndexEntriesRemoved counts index maintenance performed through the
	// objects' header membership lists.
	IndexEntriesRemoved int
}

// MarkReachable walks the object graph from the named roots and returns
// the set of reachable rids. Traversal reads records through the cache and
// charges handle costs per visited object, like the real system's sweep
// would.
func (db *Session) markReachable() (map[storage.Rid]bool, error) {
	seen := make(map[storage.Rid]bool)
	var frontier []storage.Rid
	for _, rid := range db.roots {
		if !rid.IsNil() && !seen[rid] {
			seen[rid] = true
			frontier = append(frontier, rid)
		}
	}
	for len(frontier) > 0 {
		rid := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		rec, err := storage.Get(db.Client, rid)
		if err != nil {
			return nil, fmt.Errorf("engine: sweep at %s: %w", rid, err)
		}
		db.Meter.HandleGet()
		cls := db.Classes.ByID(object.ClassID(rec))
		if cls == nil {
			db.Meter.HandleUnref()
			continue
		}
		enqueue := func(r storage.Rid) {
			if !r.IsNil() && !seen[r] {
				seen[r] = true
				frontier = append(frontier, r)
			}
		}
		for i, a := range cls.Attrs {
			switch a.Kind {
			case object.KindRef:
				v, err := object.DecodeAttr(cls, rec, i)
				if err != nil {
					return nil, err
				}
				enqueue(v.Ref)
			case object.KindSet:
				v, err := object.DecodeAttr(cls, rec, i)
				if err != nil {
					return nil, err
				}
				if v.Ref.IsNil() {
					continue
				}
				if err := collection.Scan(db.Client, v.Ref, func(m storage.Rid) (bool, error) {
					enqueue(m)
					return true, nil
				}); err != nil {
					return nil, err
				}
			}
		}
		db.Meter.HandleUnref()
	}
	return seen, nil
}

// SweepReachability marks reachable objects and reports how much of each
// extent would be garbage, without deleting anything.
func (db *Session) SweepReachability() (SweepReport, error) {
	seen, err := db.markReachable()
	if err != nil {
		return SweepReport{}, err
	}
	rep := SweepReport{Reachable: len(seen)}
	for _, name := range db.Extents() {
		e, err := db.Extent(name)
		if err != nil {
			return rep, err
		}
		err = e.File.Scan(db.Client, func(rid storage.Rid, rec []byte) (bool, error) {
			if !db.Classes.Belongs(object.ClassID(rec), e.Class) {
				return true, nil
			}
			if !seen[rid] {
				rep.Garbage++
			}
			return true, nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// CollectGarbage deletes every object unreachable from the roots,
// maintaining indexes via the objects' header membership lists and
// updating extent counts.
func (db *Session) CollectGarbage() (SweepReport, error) {
	seen, err := db.markReachable()
	if err != nil {
		return SweepReport{}, err
	}
	rep := SweepReport{Reachable: len(seen)}
	for _, name := range db.Extents() {
		e, err := db.Extent(name)
		if err != nil {
			return rep, err
		}
		var doomed []storage.Rid
		err = e.File.Scan(db.Client, func(rid storage.Rid, rec []byte) (bool, error) {
			if !db.Classes.Belongs(object.ClassID(rec), e.Class) {
				return true, nil
			}
			if !seen[rid] {
				doomed = append(doomed, rid)
			}
			return true, nil
		})
		if err != nil {
			return rep, err
		}
		for _, rid := range doomed {
			removed, err := db.deleteObject(e, rid)
			if err != nil {
				return rep, err
			}
			rep.IndexEntriesRemoved += removed
			rep.Collected++
			e.Count--
		}
		rep.Garbage += len(doomed)
	}
	return rep, nil
}

// deleteObject removes one object: its index entries (found through the
// header), then the record itself.
func (db *Session) deleteObject(e *Extent, rid storage.Rid) (indexEntries int, err error) {
	rec, err := storage.Get(db.Client, rid)
	if err != nil {
		return 0, err
	}
	for _, id := range object.IndexRefs(rec) {
		ix := db.indexes[id]
		if ix == nil {
			continue
		}
		ai := e.Class.AttrIndex(ix.Attr)
		if ai < 0 {
			continue
		}
		v, err := object.DecodeAttr(e.Class, rec, ai)
		if err != nil {
			return indexEntries, err
		}
		ok, err := ix.Backend.Delete(db.Client, index.Entry{Key: keyOf(v), Rid: rid})
		if err != nil {
			return indexEntries, err
		}
		if ok {
			indexEntries++
			// A version published from this session inherits every
			// histogram still cached, so a changed index must drop its own.
			ix.InvalidateStats()
		}
	}
	return indexEntries, storage.Delete(db.Client, rid)
}
