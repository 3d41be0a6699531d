package object

import (
	"testing"
	"testing/quick"

	"treebench/internal/sim"
	"treebench/internal/storage"
)

func patientClass(t *testing.T) (*Registry, *Class) {
	t.Helper()
	reg := NewRegistry()
	c := NewClass("Patient", []Attr{
		{Name: "name", Kind: KindString, StrLen: 16},
		{Name: "mrn", Kind: KindInt},
		{Name: "age", Kind: KindInt},
		{Name: "sex", Kind: KindChar},
		{Name: "random_integer", Kind: KindInt},
		{Name: "num", Kind: KindInt},
		{Name: "primary_care_provider", Kind: KindRef},
	})
	if err := reg.Register(c); err != nil {
		t.Fatal(err)
	}
	return reg, c
}

func patientValues(name string, mrn, age int64, sex byte, ri, num int64, pcp storage.Rid) []Value {
	return []Value{
		StringValue(name), IntValue(mrn), IntValue(age), CharValue(sex),
		IntValue(ri), IntValue(num), RefValue(pcp),
	}
}

func TestClassLayout(t *testing.T) {
	_, c := patientClass(t)
	// 16 + 4 + 4 + 1 + 4 + 4 + 8 = 41 bytes of attribute data.
	if c.Width() != 41 {
		t.Fatalf("Patient width = %d, want 41", c.Width())
	}
	// Unindexed patient ≈ 57 bytes: the paper's "about 60 bytes".
	if got := EncodedLen(c, 0); got != 57 {
		t.Fatalf("unindexed patient = %d bytes, want 57", got)
	}
	// Indexed patients carry the 8-slot area.
	if got := EncodedLen(c, DefaultIndexSlots); got != 89 {
		t.Fatalf("indexed patient = %d bytes, want 89", got)
	}
	if c.AttrIndex("num") != 5 || c.AttrIndex("nope") != -1 {
		t.Fatal("AttrIndex broken")
	}
}

func TestProviderSizeMatchesPaper(t *testing.T) {
	c := NewClass("Provider", []Attr{
		{Name: "name", Kind: KindString, StrLen: 16},
		{Name: "upin", Kind: KindInt},
		{Name: "address", Kind: KindString, StrLen: 16},
		{Name: "specialty", Kind: KindString, StrLen: 16},
		{Name: "office", Kind: KindString, StrLen: 16},
		{Name: "clients", Kind: KindSet},
	})
	// §2: "each object of Class Provider is about 120 bytes (4 bytes per
	// integer, 8 per address or object identifier plus some system
	// overhead)". Indexed: 48 header + 76 data = 124.
	if got := EncodedLen(c, DefaultIndexSlots); got < 110 || got > 130 {
		t.Fatalf("indexed provider = %d bytes, want ≈120", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, c := patientClass(t)
	pcp := storage.Rid{Page: 7, Slot: 3}
	rec, err := Encode(c, patientValues("Obelix", 42, 30, 'M', 99, 1234, pcp), DefaultIndexSlots)
	if err != nil {
		t.Fatal(err)
	}
	if ClassID(rec) != c.ID {
		t.Fatalf("class id = %d, want %d", ClassID(rec), c.ID)
	}
	checks := []struct {
		attr string
		want Value
	}{
		{"name", StringValue("Obelix")},
		{"mrn", IntValue(42)},
		{"age", IntValue(30)},
		{"sex", CharValue('M')},
		{"random_integer", IntValue(99)},
		{"num", IntValue(1234)},
		{"primary_care_provider", RefValue(pcp)},
	}
	for _, ck := range checks {
		got, err := DecodeAttr(c, rec, c.AttrIndex(ck.attr))
		if err != nil {
			t.Fatalf("%s: %v", ck.attr, err)
		}
		if got != ck.want {
			t.Fatalf("%s = %v, want %v", ck.attr, got, ck.want)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	_, c := patientClass(t)
	if _, err := Encode(c, []Value{IntValue(1)}, 0); err == nil {
		t.Fatal("wrong arity accepted")
	}
	vals := patientValues("x", 1, 2, 'F', 3, 4, storage.NilRid)
	vals[0] = IntValue(9) // name must be a string
	if _, err := Encode(c, vals, 0); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	vals = patientValues("this string is way too long for sixteen", 1, 2, 'F', 3, 4, storage.NilRid)
	if _, err := Encode(c, vals, 0); err == nil {
		t.Fatal("oversized string accepted")
	}
}

func TestEncodeAttrInPlace(t *testing.T) {
	_, c := patientClass(t)
	rec, _ := Encode(c, patientValues("Tintin", 1, 2, 'M', 3, 4, storage.NilRid), 0)
	if err := EncodeAttrInPlace(c, rec, c.AttrIndex("age"), IntValue(77)); err != nil {
		t.Fatal(err)
	}
	if err := EncodeAttrInPlace(c, rec, c.AttrIndex("name"), StringValue("Milou")); err != nil {
		t.Fatal(err)
	}
	v, _ := DecodeAttr(c, rec, c.AttrIndex("age"))
	if v.Int != 77 {
		t.Fatalf("age = %d", v.Int)
	}
	v, _ = DecodeAttr(c, rec, c.AttrIndex("name"))
	if v.Str != "Milou" {
		t.Fatalf("name = %q (old value must be fully cleared)", v.Str)
	}
}

func TestIndexRefLifecycle(t *testing.T) {
	_, c := patientClass(t)
	rec, _ := Encode(c, patientValues("p", 1, 2, 'M', 3, 4, storage.NilRid), DefaultIndexSlots)
	baseLen := len(rec)
	// Fill all 8 slots without growth.
	for id := uint32(1); id <= 8; id++ {
		var grown bool
		var err error
		rec, grown, err = AddIndexRef(rec, id)
		if err != nil || grown {
			t.Fatalf("slot %d: grown=%v err=%v", id, grown, err)
		}
	}
	if len(rec) != baseLen {
		t.Fatal("record grew while slots were free")
	}
	// Re-adding an id is a no-op.
	rec2, grown, err := AddIndexRef(rec, 5)
	if err != nil || grown || len(rec2) != baseLen {
		t.Fatalf("duplicate add: grown=%v err=%v", grown, err)
	}
	// A ninth index forces header growth ("it can be extended if required").
	rec, grown, err = AddIndexRef(rec, 9)
	if err != nil || !grown {
		t.Fatalf("ninth index: grown=%v err=%v", grown, err)
	}
	got := IndexRefs(rec)
	if len(got) != 9 || got[8] != 9 {
		t.Fatalf("IndexRefs = %v", got)
	}
	// Attributes must survive the header growth.
	v, err := DecodeAttr(c, rec, c.AttrIndex("num"))
	if err != nil || v.Int != 4 {
		t.Fatalf("num after growth = %v (%v)", v, err)
	}
}

func TestUnindexedObjectGrowsOnFirstIndex(t *testing.T) {
	_, c := patientClass(t)
	rec, _ := Encode(c, patientValues("p", 1, 2, 'M', 3, 4, storage.NilRid), 0)
	rec2, grown, err := AddIndexRef(rec, 1)
	if err != nil || !grown {
		t.Fatalf("first index on unindexed object: grown=%v err=%v", grown, err)
	}
	if len(rec2) != len(rec)+DefaultIndexSlots*indexSlotLen {
		t.Fatalf("grew by %d, want %d", len(rec2)-len(rec), DefaultIndexSlots*indexSlotLen)
	}
}

func TestRegistry(t *testing.T) {
	reg, c := patientClass(t)
	if reg.ByID(c.ID) != c || reg.ByName("Patient") != c {
		t.Fatal("lookup broken")
	}
	if err := reg.Register(NewClass("Patient", nil)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	reg.Register(NewClass("Provider", nil))
	if reg.ByName("Provider") == nil || reg.ByName("Patient") != c {
		t.Fatal("second class not registered beside the first")
	}
}

func newHandleEnv(t *testing.T) (*Table, *storage.Store, *storage.File, *Class, *sim.Meter) {
	t.Helper()
	reg, c := patientClass(t)
	store := storage.NewStore(0)
	f, err := store.CreateFile("Patients")
	if err != nil {
		t.Fatal(err)
	}
	meter := sim.NewMeter(sim.DefaultCostModel())
	tbl := NewTable(meter, store.Disk, reg)
	return tbl, store, f, c, meter
}

func TestHandleGetAttrUnref(t *testing.T) {
	tbl, store, f, c, meter := newHandleEnv(t)
	rec, _ := Encode(c, patientValues("Daisy", 10, 25, 'F', 1, 2, storage.NilRid), 0)
	rid, err := f.Append(store.Disk, rec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if h.Class() != c || h.rid != rid {
		t.Fatal("handle identity broken")
	}
	v, err := tbl.AttrByName(h, "name")
	if err != nil || v.Str != "Daisy" {
		t.Fatalf("name = %v (%v)", v, err)
	}
	tbl.Unref(h)
	if tbl.Live() != 0 {
		t.Fatalf("Live = %d after unref", tbl.Live())
	}
	if meter.N.HandleGets != 1 || meter.N.HandleUnrefs != 1 || meter.N.AttrGets != 1 {
		t.Fatalf("counters: %+v", meter.N)
	}
	want := meter.Model.HandleGet + meter.Model.HandleUnref + meter.Model.AttrGet
	if meter.Elapsed() != want {
		t.Fatalf("elapsed = %v, want %v", meter.Elapsed(), want)
	}
}

func TestHandleSharing(t *testing.T) {
	tbl, store, f, c, meter := newHandleEnv(t)
	rec, _ := Encode(c, patientValues("x", 1, 2, 'M', 3, 4, storage.NilRid), 0)
	rid, _ := f.Append(store.Disk, rec)
	h1, _ := tbl.Get(rid)
	h2, _ := tbl.Get(rid)
	if h1 != h2 {
		t.Fatal("two variables pointing at one object must share a Handle (§4.4)")
	}
	// The second Get is a refcount bump, not an allocation.
	if meter.N.HandleGets != 1 {
		t.Fatalf("HandleGets = %d, want 1", meter.N.HandleGets)
	}
	tbl.Unref(h1)
	if tbl.Live() != 1 {
		t.Fatal("handle freed while still referenced")
	}
	tbl.Unref(h2)
	if tbl.Live() != 0 {
		t.Fatal("handle leaked")
	}
}

func TestHandleMemoryAccounting(t *testing.T) {
	tbl, store, f, c, _ := newHandleEnv(t)
	var handles []*Handle
	for i := 0; i < 10; i++ {
		rec, _ := Encode(c, patientValues("x", int64(i), 2, 'M', 3, 4, storage.NilRid), 0)
		rid, _ := f.Append(store.Disk, rec)
		h, err := tbl.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := tbl.MaxBytes(); got != 10*FatHandleBytes {
		t.Fatalf("MaxBytes = %d, want %d", got, 10*FatHandleBytes)
	}
	for _, h := range handles {
		tbl.Unref(h)
	}
	if tbl.Live() != 0 {
		t.Fatal("leaked handles")
	}
}

func TestSlimHandlesCheaper(t *testing.T) {
	tbl, store, f, c, meter := newHandleEnv(t)
	rec, _ := Encode(c, patientValues("x", 1, 2, 'M', 3, 4, storage.NilRid), 0)
	rid, _ := f.Append(store.Disk, rec)

	h, _ := tbl.Get(rid)
	tbl.Unref(h)
	fat := meter.Elapsed()

	meter.Reset()
	meter.SetSlimHandles(true)
	h, _ = tbl.Get(rid)
	tbl.Unref(h)
	slim := meter.Elapsed()
	if slim >= fat {
		t.Fatalf("slim get+unref (%v) not cheaper than fat (%v)", slim, fat)
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"7":       IntValue(7),
		`'M'`:     {},
		`"hello"`: StringValue("hello"),
	}
	_ = cases
	if IntValue(7).String() != "7" {
		t.Fatal("int string")
	}
	if StringValue("hi").String() != `"hi"` {
		t.Fatal("str string")
	}
	if got := CharValue('M').String(); got != `'M'` {
		t.Fatalf("char string: %s", got)
	}
	if KindSet.String() != "set" || Kind(99).String() == "" {
		t.Fatal("kind strings")
	}
}

// Property: encode→decode round-trips arbitrary int/string attribute values.
func TestCodecRoundTripProperty(t *testing.T) {
	_, c := patientClass(t)
	f := func(mrn, age int32, num int32, nameSeed uint8) bool {
		name := string(rune('a'+nameSeed%26)) + "patient"
		vals := patientValues(name, int64(mrn), int64(age), 'F', 0, int64(num), storage.NilRid)
		rec, err := Encode(c, vals, DefaultIndexSlots)
		if err != nil {
			return false
		}
		for i := range vals {
			got, err := DecodeAttr(c, rec, i)
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetColsReusesColumns pins the batch's column reuse: once a batch has
// sized its value columns, the Reset → Append → SetCols cycle every later
// batch of the scan goes through allocates nothing (Reset used to truncate
// Cols and SetCols then appended nil over the retained columns, so every
// batch paid rows × 40 B per projected attribute).
func TestSetColsReusesColumns(t *testing.T) {
	const rows, cols = 64, 3
	b := NewBatch(rows)
	cycle := func() {
		b.Reset()
		for i := 0; i < rows; i++ {
			b.Append(storage.Rid{Page: 1, Slot: uint16(i)}, nil, nil)
		}
		b.SetCols(cols)
		// Operators compact the columns to the selected rows.
		for j := range b.Cols {
			b.Cols[j] = b.Cols[j][:rows/2]
		}
	}
	cycle()
	if got := testing.AllocsPerRun(10, cycle); got != 0 {
		t.Fatalf("a warmed batch allocated %v objects per Reset+Append+SetCols, want 0", got)
	}
	if len(b.Cols) != cols || len(b.Sel) != rows {
		t.Fatalf("SetCols sized %d columns / %d sel, want %d / %d", len(b.Cols), len(b.Sel), cols, rows)
	}
}
