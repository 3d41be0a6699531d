package engine

import (
	"treebench/internal/object"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Dynamic class evolution: one of the §4.4 features whose bookkeeping O2
// pays for in every Handle ("some information about the schema update
// history of the object class"). The update waves use it, so its costs —
// lazy upgrades and relocation storms — are measured in the same simulated
// units as everything else.

// EvolveClass appends an attribute to the extent's class with a default
// for pre-existing objects. Nothing is rewritten: old records answer reads
// of the new attribute with the default until they are upgraded.
func (db *Session) EvolveClass(e *Extent, a object.Attr, def object.Value) error {
	if err := db.mutable(); err != nil {
		return err
	}
	return e.Class.AddAttr(a, def)
}

// UpgradeObject re-encodes the object at rid at its class's current epoch.
// The record grows, so this can relocate it — schema evolution has the
// same storm mechanics as §3.2's late indexing.
func (db *Session) UpgradeObject(tx *txn.Txn, e *Extent, rid storage.Rid) (upgraded, relocated bool, err error) {
	if err := db.mutable(); err != nil {
		return false, false, err
	}
	rec, err := storage.Get(db.Client, rid)
	if err != nil {
		return false, false, err
	}
	out, changed, err := object.UpgradeRecord(e.Class, rec)
	if err != nil {
		return false, false, err
	}
	if !changed {
		return false, false, nil
	}
	if tx != nil {
		if err := tx.NoteUpdate(len(out)); err != nil {
			return false, false, err
		}
	}
	relocated, err = e.File.Update(db.Client, rid, out)
	return true, relocated, err
}
