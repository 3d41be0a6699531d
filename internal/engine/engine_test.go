package engine

import (
	"testing"

	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

func itemClass() *object.Class {
	return object.NewClass("Item", []object.Attr{
		{Name: "id", Kind: object.KindInt},
		{Name: "score", Kind: object.KindInt},
		{Name: "label", Kind: object.KindString, StrLen: 16},
	})
}

func newDB(t *testing.T) *Database {
	t.Helper()
	return New(sim.DefaultMachine(), sim.DefaultCostModel(), txn.NoTransaction)
}

func itemValues(id, score int64, label string) []object.Value {
	return []object.Value{object.IntValue(id), object.IntValue(score), object.StringValue(label)}
}

func TestExtentLifecycle(t *testing.T) {
	db := newDB(t)
	e, err := db.CreateExtent("Items", itemClass(), "items")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateExtent("Items", itemClass(), "items"); err == nil {
		t.Fatal("duplicate extent accepted")
	}
	got, err := db.Extent("Items")
	if err != nil || got != e {
		t.Fatalf("Extent lookup: %v", err)
	}
	if _, err := db.Extent("Nope"); err == nil {
		t.Fatal("unknown extent found")
	}
	if names := db.Extents(); len(names) != 1 || names[0] != "Items" {
		t.Fatalf("Extents = %v", names)
	}
}

func TestSharedFileExtents(t *testing.T) {
	db := newDB(t)
	a, err := db.CreateExtent("A", itemClass(), "shared")
	if err != nil {
		t.Fatal(err)
	}
	other := object.NewClass("Other", []object.Attr{{Name: "x", Kind: object.KindInt}})
	b, err := db.CreateExtent("B", other, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if a.File != b.File {
		t.Fatal("extents did not share the file")
	}
}

func TestInsertAndIndexMaintenance(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	// First index created before load: the cheap path.
	ix, reloc, err := db.CreateIndex(e, "score", false)
	if err != nil || reloc != 0 {
		t.Fatalf("empty-extent index: reloc=%d err=%v", reloc, err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Insert(nil, e, itemValues(int64(i), int64(i%100), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if e.Count != 1000 {
		t.Fatalf("Count = %d", e.Count)
	}
	rids, err := ix.Backend.Lookup(db.Client, 42)
	if err != nil || len(rids) != 10 {
		t.Fatalf("Lookup(42) = %d rids (%v), want 10", len(rids), err)
	}
	if db.IndexOn("Items", "score") != ix || db.IndexOn("Items", "nope") != nil {
		t.Fatal("IndexOn broken")
	}
	if err := ix.Backend.Validate(db.Client); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexAfterLoadRelocates(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	// Load 2000 objects WITHOUT any index: born with no header slots.
	for i := 0; i < 2000; i++ {
		if _, err := db.Insert(nil, e, itemValues(int64(i), int64(i), "y")); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := e.File.NumPages()
	ix, reloc, err := db.CreateIndex(e, "score", false)
	if err != nil {
		t.Fatal(err)
	}
	// §3.2: growing every header forces a large fraction of the objects
	// to relocate (the page reserve absorbs the first few growths).
	if reloc < 500 {
		t.Fatalf("only %d relocations out of 2000 objects", reloc)
	}
	if e.File.NumPages() <= pagesBefore {
		t.Fatal("relocations did not extend the file")
	}
	// The index is still correct.
	if ix.Backend.Len() != 2000 {
		t.Fatalf("tree has %d entries", ix.Backend.Len())
	}
	rids, _ := ix.Backend.Lookup(db.Client, 1234)
	if len(rids) != 1 {
		t.Fatalf("Lookup = %v", rids)
	}
	rec, err := storage.Get(db.Client, rids[0])
	if err != nil {
		t.Fatal(err)
	}
	v, _ := object.DecodeAttr(e.Class, rec, e.Class.AttrIndex("score"))
	if v.Int != 1234 {
		t.Fatalf("indexed object score = %d", v.Int)
	}
	// Membership is recorded in the (relocated) object's header.
	refs := object.IndexRefs(rec)
	if len(refs) != 1 || refs[0] != ix.Backend.ID() {
		t.Fatalf("IndexRefs = %v", refs)
	}
}

func TestBornIndexedAvoidsRelocation(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	e.IndexedAtCreation = true // objects get slots even before the index exists
	for i := 0; i < 2000; i++ {
		db.Insert(nil, e, itemValues(int64(i), int64(i), "z"))
	}
	_, reloc, err := db.CreateIndex(e, "score", false)
	if err != nil {
		t.Fatal(err)
	}
	if reloc != 0 {
		t.Fatalf("%d relocations despite pre-allocated headers", reloc)
	}
}

func TestSecondIndexIsCheap(t *testing.T) {
	// "It is more efficient to create an index once the collection is
	// populated ... not for the first index": the second index finds
	// header slots already allocated.
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	for i := 0; i < 2000; i++ {
		db.Insert(nil, e, itemValues(int64(i), int64(i), "w"))
	}
	_, reloc1, _ := db.CreateIndex(e, "score", false)
	if reloc1 < 500 {
		t.Fatalf("first index relocated only %d", reloc1)
	}
	_, reloc2, err := db.CreateIndex(e, "id", false)
	if err != nil {
		t.Fatal(err)
	}
	if reloc2 != 0 {
		t.Fatalf("second index relocated %d objects", reloc2)
	}
}

func TestDuplicateIndexRejected(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	if _, _, err := db.CreateIndex(e, "score", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.CreateIndex(e, "score", false); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, _, err := db.CreateIndex(e, "label", false); err == nil {
		t.Fatal("string index accepted")
	}
	if _, _, err := db.CreateIndex(e, "missing", false); err == nil {
		t.Fatal("index on missing attribute accepted")
	}
}

func TestUpdateAttrMaintainsIndexViaHeader(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	db.CreateIndex(e, "score", false)
	rid, err := db.Insert(nil, e, itemValues(1, 50, "q"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAttr(nil, e, rid, "score", object.IntValue(99)); err != nil {
		t.Fatal(err)
	}
	ix := db.IndexOn("Items", "score")
	if rids, _ := ix.Backend.Lookup(db.Client, 50); len(rids) != 0 {
		t.Fatal("old key still indexed")
	}
	if rids, _ := ix.Backend.Lookup(db.Client, 99); len(rids) != 1 || rids[0] != rid {
		t.Fatal("new key not indexed")
	}
	// Non-indexed attribute updates don't touch the tree.
	if err := db.UpdateAttr(nil, e, rid, "id", object.IntValue(7)); err != nil {
		t.Fatal(err)
	}
}

func TestColdRestartClearsState(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	rid, _ := db.Insert(nil, e, itemValues(1, 2, "r"))
	h, err := db.Handles.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	db.ColdRestart()
	if db.Client.Resident() != 0 || db.Server.Resident() != 0 {
		t.Fatal("caches warm after cold restart")
	}
	if db.Handles.Live() != 0 {
		t.Fatal("handles survived restart")
	}
	if db.Meter.Elapsed() != 0 {
		t.Fatal("meter not reset")
	}
	// Data survives.
	h2, err := db.Handles.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db.Handles.AttrByName(h2, "label")
	if v.Str != "r" {
		t.Fatalf("label = %q", v.Str)
	}
	if db.Meter.N.DiskReads == 0 {
		t.Fatal("cold read did not hit the disk")
	}
}

func TestInsertWithTxnBudget(t *testing.T) {
	db := New(sim.DefaultMachine(), sim.DefaultCostModel(), txn.Standard)
	db.Txns.SetCreateBudget(10)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	tx := db.Txns.Begin()
	var lastErr error
	for i := 0; i < 20; i++ {
		if _, err := db.Insert(tx, e, itemValues(int64(i), 0, "t")); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Fatal("creation budget never enforced")
	}
}

func TestEngineAccessors(t *testing.T) {
	db := newDB(t)
	e, _ := db.CreateExtent("Items", itemClass(), "items")
	ix, _, err := db.CreateIndex(e, "score", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Indexes(); len(got) != 1 || got[0] != ix {
		t.Fatalf("Indexes: %v", got)
	}
	if db.indexes[ix.Backend.ID()] != ix || db.indexes[9999] != nil {
		t.Fatal("index not registered under its header id")
	}
	for i := 0; i < 100; i++ {
		db.Insert(nil, e, itemValues(int64(i), int64(i%10), "x"))
	}
	h, err := ix.Stats(db.Client)
	if err != nil || h == nil {
		t.Fatalf("Stats: %v", err)
	}
	if h.Total() != 100 || h.Min() != 0 || h.Max() != 9 {
		t.Fatalf("histogram summary: total=%d min=%d max=%d", h.Total(), h.Min(), h.Max())
	}
	// Cached until an update invalidates it.
	h2, _ := ix.Stats(db.Client)
	if h2 != h {
		t.Fatal("stats rebuilt without invalidation")
	}
	db.Insert(nil, e, itemValues(100, 99, "y"))
	h3, _ := ix.Stats(db.Client)
	if h3 == h || h3.Max() != 99 {
		t.Fatalf("stats stale after insert: max=%d", h3.Max())
	}
}
