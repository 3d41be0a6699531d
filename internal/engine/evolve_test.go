package engine

import (
	"errors"
	"testing"

	"treebench/internal/object"
	"treebench/internal/storage"
)

func TestEvolveClassLazyDefaults(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	var rids []storage.Rid
	for i := 0; i < 100; i++ {
		rid, err := db.Insert(nil, e, itemValues(int64(i), int64(i), "old"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}

	// Evolve: add a rating with default 5.
	if err := db.EvolveClass(e, object.Attr{Name: "rating", Kind: object.KindInt}, object.IntValue(5)); err != nil {
		t.Fatal(err)
	}
	if e.Class.Epoch() != 1 {
		t.Fatalf("epoch = %d", e.Class.Epoch())
	}
	// Old records answer reads with the default, lazily.
	rec, _ := storage.Get(db.Client, rids[0])
	v, err := object.DecodeAttr(e.Class, rec, e.Class.AttrIndex("rating"))
	if err != nil || v.Int != 5 {
		t.Fatalf("default read: %v (%v)", v, err)
	}
	// Old attributes still decode from old records.
	v, err = object.DecodeAttr(e.Class, rec, e.Class.AttrIndex("score"))
	if err != nil || v.Int != 0 {
		t.Fatalf("old attr after evolution: %v (%v)", v, err)
	}
	// Writing the new attribute into a stale record is refused.
	err = object.EncodeAttrInPlace(e.Class, rec, e.Class.AttrIndex("rating"), object.IntValue(9))
	if !errors.Is(err, object.ErrStaleRecord) {
		t.Fatalf("stale write: %v", err)
	}

	// New inserts carry the new attribute physically.
	newRid, err := db.Insert(nil, e, append(itemValues(101, 101, "new"), object.IntValue(7)))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ = storage.Get(db.Client, newRid)
	if object.RecordEpoch(rec) != 1 {
		t.Fatalf("new record epoch = %d", object.RecordEpoch(rec))
	}
	v, _ = object.DecodeAttr(e.Class, rec, e.Class.AttrIndex("rating"))
	if v.Int != 7 {
		t.Fatalf("new record rating = %d", v.Int)
	}
}

func TestEvolveDuplicateAndBadDefault(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	if err := db.EvolveClass(e, object.Attr{Name: "score", Kind: object.KindInt}, object.IntValue(0)); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if err := db.EvolveClass(e, object.Attr{Name: "tag", Kind: object.KindString, StrLen: 8}, object.IntValue(0)); err == nil {
		t.Fatal("mismatched default accepted")
	}
}

// upgradeAll runs UpgradeObject over rids in order (the eager upgrade
// the update waves apply), counting the records it rewrote and relocated.
func upgradeAll(db *Session, e *Extent, rids []storage.Rid) (upgraded, relocated int, err error) {
	for _, rid := range rids {
		up, rel, err := db.UpgradeObject(nil, e, rid)
		if err != nil {
			return upgraded, relocated, err
		}
		if up {
			upgraded++
		}
		if rel {
			relocated++
		}
	}
	return upgraded, relocated, nil
}

func TestUpgradeObjectAndExtent(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	var rids []storage.Rid
	for i := 0; i < 500; i++ {
		rid, err := db.Insert(nil, e, itemValues(int64(i), int64(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	db.EvolveClass(e, object.Attr{Name: "rating", Kind: object.KindInt}, object.IntValue(5))
	db.EvolveClass(e, object.Attr{Name: "notes", Kind: object.KindString, StrLen: 32}, object.StringValue("n/a"))

	upgraded, relocated, err := upgradeAll(db, e, rids)
	if err != nil {
		t.Fatal(err)
	}
	if upgraded != 500 {
		t.Fatalf("upgraded %d, want 500", upgraded)
	}
	// Each record grew by 36 bytes; the page reserve (and the space each
	// departing record frees for its neighbours) absorbs some, but a
	// large fraction relocates — evolution's relocation storm.
	if relocated < 150 {
		t.Fatalf("only %d relocations", relocated)
	}
	// Everything is now writable at the new epoch and reads real values.
	count := 0
	err = e.File.Scan(db.Client, func(rid storage.Rid, rec []byte) (bool, error) {
		if object.ClassID(rec) != e.Class.ID {
			return true, nil
		}
		if object.RecordEpoch(rec) != e.Class.Epoch() {
			return false, errors.New("stale record survived the upgrade")
		}
		v, err := object.DecodeAttr(e.Class, rec, e.Class.AttrIndex("notes"))
		if err != nil || v.Str != "n/a" {
			return false, errors.New("upgraded default wrong")
		}
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("scan saw %d records", count)
	}
	// Idempotent.
	upgraded, _, err = upgradeAll(db, e, rids)
	if err != nil || upgraded != 0 {
		t.Fatalf("second upgrade: %d (%v)", upgraded, err)
	}
}

func TestUpgradePreservesIndexMembership(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	ix, _, err := db.CreateIndex(e, "score", false)
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.Rid
	for i := 0; i < 200; i++ {
		rid, err := db.Insert(nil, e, itemValues(int64(i), int64(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	db.EvolveClass(e, object.Attr{Name: "rating", Kind: object.KindInt}, object.IntValue(1))
	if _, _, err := upgradeAll(db, e, rids); err != nil {
		t.Fatal(err)
	}
	// The index still resolves through the forwarding stubs, and the
	// upgraded records still carry their membership.
	hits, err := ix.Backend.Lookup(db.Client, 123)
	if err != nil || len(hits) != 1 {
		t.Fatalf("lookup after upgrade: %v %v", hits, err)
	}
	rec, err := storage.Get(db.Client, hits[0])
	if err != nil {
		t.Fatal(err)
	}
	refs := object.IndexRefs(rec)
	if len(refs) != 1 || refs[0] != ix.Backend.ID() {
		t.Fatalf("membership lost: %v", refs)
	}
	v, _ := object.DecodeAttr(e.Class, rec, e.Class.AttrIndex("score"))
	if v.Int != 123 {
		t.Fatalf("score = %d", v.Int)
	}
}
