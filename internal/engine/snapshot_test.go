package engine

import (
	"errors"
	"testing"

	"treebench/internal/object"
	"treebench/internal/storage"
)

// buildSnapshot makes a small database — one extent, n items, an index on
// score — and freezes it.
func buildSnapshot(t *testing.T, n int) (*Snapshot, []storage.Rid) {
	t.Helper()
	db := newDB(t)
	e, err := db.CreateExtent("Items", itemClass(), "items")
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]storage.Rid, n)
	for i := 0; i < n; i++ {
		rids[i], err = db.Insert(nil, e, itemValues(int64(i), int64(i%7), "x"))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.CreateIndex(e, "score", false); err != nil {
		t.Fatal(err)
	}
	sn, err := db.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return sn, rids
}

// TestReadOnlySessionGuards drives every mutating entry point against a
// read-only fork: each must fail with ErrReadOnlySession before touching
// any shared buffer.
func TestReadOnlySessionGuards(t *testing.T) {
	sn, rids := buildSnapshot(t, 10)
	db := sn.Fork()
	if !db.readOnly {
		t.Fatal("fork not read-only")
	}
	e, err := db.Extent("Items")
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrReadOnlySession) {
			t.Fatalf("%s on read-only session = %v, want ErrReadOnlySession", op, err)
		}
	}
	_, err = db.CreateExtent("More", itemClass(), "more")
	check("CreateExtent", err)
	_, err = db.Insert(nil, e, itemValues(99, 1, "y"))
	check("Insert", err)
	_, _, err = db.CreateIndex(e, "id", false)
	check("CreateIndex", err)
	check("UpdateAttr", db.UpdateAttr(nil, e, rids[0], "score", object.IntValue(5)))
	check("EvolveClass", db.EvolveClass(e, object.Attr{Name: "z", Kind: object.KindInt}, object.IntValue(0)))
	_, _, err = db.UpgradeObject(nil, e, rids[0])
	check("UpgradeObject", err)
	_, err = db.DefineRelationship(e, "score", e, "id")
	check("DefineRelationship", err)
}

// TestForkEqualsColdRestart is the byte-identity property: a fresh fork's
// reads report exactly the counters the frozen builder reports after a
// ColdRestart — sharing pages must not change any simulated number.
func TestForkEqualsColdRestart(t *testing.T) {
	sn, rids := buildSnapshot(t, 200)
	builder := sn.Fork() // stands in for the builder: same frozen pages
	fork := sn.Fork()

	readAll := func(db *Session) {
		t.Helper()
		db.ColdRestart()
		for _, rid := range rids {
			if _, err := db.Handles.Get(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll(builder)
	readAll(fork)
	if builder.Meter.N != fork.Meter.N {
		t.Fatalf("fork counters diverge from builder:\n%+v\nvs\n%+v", builder.Meter.N, fork.Meter.N)
	}
	if builder.Meter.Elapsed() != fork.Meter.Elapsed() {
		t.Fatalf("fork elapsed %v, builder %v", fork.Meter.Elapsed(), builder.Meter.Elapsed())
	}
	if builder.Meter.Elapsed() == 0 {
		t.Fatal("reads cost nothing — the comparison is vacuous")
	}
}

// TestMutableForkIsolation mutates a COW fork and checks nothing leaks
// into the snapshot or into read-only siblings.
func TestMutableForkIsolation(t *testing.T) {
	sn, rids := buildSnapshot(t, 50)
	basePages := sn.Pages()

	m := sn.ForkMutable()
	if m.readOnly {
		t.Fatal("mutable fork claims read-only")
	}
	me, err := m.Extent("Items")
	if err != nil {
		t.Fatal(err)
	}
	// Update an indexed attribute (exercises COW on data and index pages)
	// and insert a new object (exercises allocation past the base).
	if err := m.UpdateAttr(nil, me, rids[0], "score", object.IntValue(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(nil, me, itemValues(999, 999, "new")); err != nil {
		t.Fatal(err)
	}
	if me.Count != 51 {
		t.Fatalf("fork extent count = %d, want 51", me.Count)
	}
	// Schema evolution stays private too: the class graph was deep-copied.
	if err := m.EvolveClass(me, object.Attr{Name: "extra", Kind: object.KindInt}, object.IntValue(7)); err != nil {
		t.Fatal(err)
	}

	r := sn.Fork()
	re, err := r.Extent("Items")
	if err != nil {
		t.Fatal(err)
	}
	if re.Count != 50 {
		t.Fatalf("snapshot extent count changed to %d", re.Count)
	}
	if re.Class.AttrIndex("extra") >= 0 {
		t.Fatal("schema evolution leaked into the shared class graph")
	}
	h, err := r.Handles.Get(rids[0])
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Handles.AttrByName(h, "score")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int == 1000 {
		t.Fatal("fork's UpdateAttr leaked into the shared pages")
	}
	// The fork's index sees the update; the sibling's does not.
	mix := m.IndexOn("Items", "score")
	rix := r.IndexOn("Items", "score")
	if mix == nil || rix == nil {
		t.Fatal("index lost in fork")
	}
	mhits, err := mix.Backend.Lookup(m.Client, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(mhits) != 1 {
		t.Fatalf("fork index lookup(1000) = %d hits, want 1", len(mhits))
	}
	rhits, err := rix.Backend.Lookup(r.Client, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rhits) != 0 {
		t.Fatalf("sibling index lookup(1000) = %d hits, want 0", len(rhits))
	}
	if sn.Pages() != basePages {
		t.Fatalf("snapshot grew from %d to %d pages", basePages, sn.Pages())
	}
}
