package object

import (
	"reflect"
	"strings"
	"testing"
)

// TestRegistryStateSparseIDs: Register hands out dense ids, but a restored
// state may carry any — the id table must hold gaps, answer nil for ids it
// never saw, and export exactly what it was given.
func TestRegistryStateSparseIDs(t *testing.T) {
	st := &RegistryState{NextID: 8, Classes: []ClassState{
		{ID: 3, Name: "Person", Attrs: []Attr{{Name: "age", Kind: KindInt}}, OrigAttrs: 1},
		{ID: 7, Name: "Patient", Parent: "Person", Attrs: []Attr{{Name: "age", Kind: KindInt}, {Name: "mrn", Kind: KindInt}}, OrigAttrs: 2},
	}}
	reg, err := RestoreRegistry(st)
	if err != nil {
		t.Fatal(err)
	}
	clone, remap := reg.Clone()
	for _, r := range []*Registry{reg, clone} {
		if c := r.ByID(3); c == nil || c.Name != "Person" {
			t.Fatalf("ByID(3) = %v", c)
		}
		if c := r.ByID(7); c == nil || c.Name != "Patient" || !r.Belongs(7, r.ByID(3)) {
			t.Fatalf("ByID(7) = %v", c)
		}
		for _, id := range []uint16{0, 5, 8, 65535} {
			if c := r.ByID(id); c != nil {
				t.Fatalf("ByID(%d) = %s, want nil", id, c.Name)
			}
			if r.Belongs(id, r.ByID(3)) {
				t.Fatalf("unknown class %d belongs to Person", id)
			}
		}
		if got := r.State(); !reflect.DeepEqual(got, st) {
			t.Fatalf("State() = %+v, want %+v", got, st)
		}
	}
	if remap(reg.ByID(7)) != clone.ByID(7) || clone.ByID(7) == reg.ByID(7) {
		t.Fatal("clone does not own its classes")
	}
	next := NewClass("Visit", nil)
	if err := clone.Register(next); err != nil || next.ID != 8 || clone.ByID(8) != next || reg.ByID(8) != nil {
		t.Fatalf("Register after restore: id %d, err %v", next.ID, err)
	}

	st.Classes[1].ID = 3
	if _, err := RestoreRegistry(st); err == nil || !strings.Contains(err.Error(), "duplicate class id 3") {
		t.Fatalf("duplicate id: err = %v", err)
	}
}
