package object

import (
	"errors"
	"fmt"
	"testing"

	"treebench/internal/sim"
	"treebench/internal/storage"
)

func evolveClass(t *testing.T) *Class {
	t.Helper()
	return NewClass("Thing", []Attr{
		{Name: "a", Kind: KindInt},
		{Name: "b", Kind: KindString, StrLen: 8},
	})
}

// TestCheckAttrMatchesDecodeAttr: CheckAttr fails where DecodeAttr does,
// with the same text, and a string attribute it checks builds nothing.
func TestCheckAttrMatchesDecodeAttr(t *testing.T) {
	c := evolveClass(t)
	rec0, err := Encode(c, []Value{IntValue(1), StringValue("x")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttr(Attr{Name: "c", Kind: KindInt}, IntValue(7)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rec  []byte
		i    int
	}{
		{"carried", rec0, 1},
		{"defaulted", rec0, 2},
		{"past the class", rec0, 3},
		{"negative", rec0, -1},
		{"record too short", rec0[:len(rec0)-2], 1},
	} {
		_, want := DecodeAttr(c, tc.rec, tc.i)
		if got := CheckAttr(c, tc.rec, tc.i); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: CheckAttr = %v, DecodeAttr = %v", tc.name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = CheckAttr(c, rec0, 1) }); n != 0 {
		t.Fatalf("CheckAttr of a string attribute allocates %.0f objects", n)
	}
}

func TestAddAttrAndEpochs(t *testing.T) {
	c := evolveClass(t)
	if c.Epoch() != 0 {
		t.Fatalf("fresh epoch %d", c.Epoch())
	}
	rec0, err := Encode(c, []Value{IntValue(1), StringValue("x")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttr(Attr{Name: "c", Kind: KindInt}, IntValue(7)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttr(Attr{Name: "d", Kind: KindChar}, CharValue('z')); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 2 || c.Width() != 4+8+4+1 {
		t.Fatalf("epoch %d width %d", c.Epoch(), c.Width())
	}
	// Epoch-0 record: old attrs readable, new ones default.
	if v, err := DecodeAttr(c, rec0, c.AttrIndex("a")); err != nil || v.Int != 1 {
		t.Fatalf("a: %v %v", v, err)
	}
	if v, err := DecodeAttr(c, rec0, c.AttrIndex("c")); err != nil || v.Int != 7 {
		t.Fatalf("c default: %v %v", v, err)
	}
	if v, err := DecodeAttr(c, rec0, c.AttrIndex("d")); err != nil || byte(v.Int) != 'z' {
		t.Fatalf("d default: %v %v", v, err)
	}
	// Writing a missing attribute is refused until upgrade.
	if err := EncodeAttrInPlace(c, rec0, c.AttrIndex("c"), IntValue(9)); !errors.Is(err, ErrStaleRecord) {
		t.Fatalf("stale write: %v", err)
	}
	// Upgrade fills defaults and preserves old values.
	up, changed, err := UpgradeRecord(c, rec0)
	if err != nil || !changed {
		t.Fatalf("upgrade: changed=%v err=%v", changed, err)
	}
	if RecordEpoch(up) != 2 {
		t.Fatalf("upgraded epoch %d", RecordEpoch(up))
	}
	for name, want := range map[string]int64{"a": 1, "c": 7} {
		v, err := DecodeAttr(c, up, c.AttrIndex(name))
		if err != nil || v.Int != want {
			t.Fatalf("%s after upgrade: %v %v", name, v, err)
		}
	}
	if v, _ := DecodeAttr(c, up, c.AttrIndex("b")); v.Str != "x" {
		t.Fatalf("b after upgrade: %v", v)
	}
	// Idempotent on current-epoch records.
	if _, changed, err := UpgradeRecord(c, up); err != nil || changed {
		t.Fatalf("second upgrade: changed=%v err=%v", changed, err)
	}
	// Writable now.
	if err := EncodeAttrInPlace(c, up, c.AttrIndex("c"), IntValue(9)); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradePreservesHeaderBookkeeping(t *testing.T) {
	c := evolveClass(t)
	rec, _ := Encode(c, []Value{IntValue(1), StringValue("y")}, DefaultIndexSlots)
	var err error
	rec, _, err = AddIndexRef(rec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttr(Attr{Name: "c", Kind: KindInt}, IntValue(0)); err != nil {
		t.Fatal(err)
	}
	up, _, err := UpgradeRecord(c, rec)
	if err != nil {
		t.Fatal(err)
	}
	refs := IndexRefs(up)
	if len(refs) != 1 || refs[0] != 42 {
		t.Fatalf("index refs lost: %v", refs)
	}
}

func TestAddAttrValidation(t *testing.T) {
	c := evolveClass(t)
	if err := c.AddAttr(Attr{Name: "a", Kind: KindInt}, IntValue(0)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := c.AddAttr(Attr{Name: "e", Kind: KindInt}, StringValue("no")); err == nil {
		t.Fatal("mismatched default accepted")
	}
}

func TestSubclassEncodingInPackage(t *testing.T) {
	base := NewClass("Base", []Attr{{Name: "x", Kind: KindInt}})
	sub, err := NewSubclass("Sub", base, []Attr{{Name: "y", Kind: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(base); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(sub); err != nil {
		t.Fatal(err)
	}
	rec, err := Encode(sub, []Value{IntValue(5), IntValue(6)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix decode through the base class.
	if v, err := DecodeAttr(base, rec, 0); err != nil || v.Int != 5 {
		t.Fatalf("prefix decode: %v %v", v, err)
	}
	if !reg.Belongs(ClassID(rec), base) || !reg.Belongs(ClassID(rec), sub) {
		t.Fatal("Belongs broken")
	}
	if reg.Belongs(9999, base) {
		t.Fatal("unknown class belongs")
	}
	other := NewClass("Other", nil)
	reg.Register(other)
	if reg.Belongs(other.ID, base) {
		t.Fatal("unrelated class belongs")
	}
}

func TestHandleAccessors(t *testing.T) {
	reg := NewRegistry()
	c := NewClass("T", []Attr{{Name: "x", Kind: KindInt}})
	reg.Register(c)
	store := storage.NewStore(0)
	f, _ := store.CreateFile("t")
	rec, _ := Encode(c, []Value{IntValue(3)}, DefaultIndexSlots)
	rec, _, _ = AddIndexRef(rec, 11)
	rid, _ := f.Append(store.Disk, rec)
	tbl := NewTable(newTestMeter(), store.Disk, reg)
	h, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Unref(h)
	if got := h.indexes; len(got) != 1 || got[0] != 11 {
		t.Fatalf("handle Indexes: %v", got)
	}
}

func TestSetValueString(t *testing.T) {
	v := SetValue(storage.Rid{Page: 2, Slot: 1})
	if v.Kind != KindSet || v.String() != "set@2.1" {
		t.Fatalf("SetValue: %v %q", v.Kind, v.String())
	}
	if RefValue(storage.NilRid).String() != "@nil" {
		t.Fatal("nil ref string")
	}
}

// newTestMeter builds a meter for in-package handle tests.
func newTestMeter() *sim.Meter { return sim.NewMeter(sim.DefaultCostModel()) }
