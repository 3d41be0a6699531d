package object

import (
	"fmt"

	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Handle byte sizes, from §4.4: "All in all, the structure takes 60 Bytes
// of memory that have to be allocated, updated and freed whenever
// necessary" — versus the compact representative the paper proposes for
// literals and lightly-featured objects.
const (
	FatHandleBytes  = 60
	SlimHandleBytes = 16
)

// Handle is the in-memory representative of one object: what O2 hands to
// application code instead of a raw record pointer. Its fields mirror the
// §4.4 inventory (object pointer, flag bits, type pointer, index list,
// refcount, version pointer, schema history). The cost of allocating,
// updating and freeing these is charged through the session meter and is
// the subject of the paper's Figure 9 analysis.
type Handle struct {
	rid      storage.Rid
	class    *Class
	rec      []byte // pinned record bytes
	refcount int
	flags    uint8
	indexes  []uint32 // decoded index membership (duplicated from the record "to have it handy")
}

// Class returns the object's class.
func (h *Handle) Class() *Class { return h.class }

// Table materializes and releases Handles, charging the cost model. It is
// the seam where the paper's §4.4 improvements (slim handles, bulk
// allocation) plug in: see sim.Meter.SetSlimHandles and Fetcher.
type Table struct {
	meter   *sim.Meter
	pager   storage.Pager
	classes *Registry

	// live implements O2's "only one structure per object in memory":
	// two variables pointing at one object share a Handle.
	live map[storage.Rid]*Handle

	// Memory accounting for reporting: current and high-water handle bytes.
	bytes    int64
	maxBytes int64
}

// NewTable returns a handle table reading records through pager.
func NewTable(meter *sim.Meter, pager storage.Pager, classes *Registry) *Table {
	return &Table{
		meter:   meter,
		pager:   pager,
		classes: classes,
		live:    make(map[storage.Rid]*Handle),
	}
}

func (t *Table) handleBytes() int64 {
	if t.meter.SlimHandles() {
		return SlimHandleBytes
	}
	return FatHandleBytes
}

// Get materializes the Handle for rid, charging one HandleGet (or bumping
// the refcount if the object is already represented in memory).
func (t *Table) Get(rid storage.Rid) (*Handle, error) {
	if h, ok := t.live[rid]; ok {
		h.refcount++
		return h, nil
	}
	rec, err := storage.Get(t.pager, rid)
	if err != nil {
		return nil, err
	}
	cls := t.classes.ByID(ClassID(rec))
	if cls == nil {
		return nil, fmt.Errorf("object: record at %s has unknown class %d", rid, ClassID(rec))
	}
	t.meter.HandleGet()
	h := &Handle{rid: rid, class: cls, rec: rec, refcount: 1, flags: rec[2]}
	if !t.meter.SlimHandles() {
		// Fat handles duplicate the index list so updates need not fix
		// the object in memory (§4.4).
		h.indexes = IndexRefs(rec)
	}
	t.live[rid] = h
	t.bytes += t.handleBytes()
	if t.bytes > t.maxBytes {
		t.maxBytes = t.bytes
	}
	return h, nil
}

// Unref charges one HandleUnref and frees the representative when the last
// reference drops (the real system sometimes delays the free; the cost
// model's HandleUnref constant includes that amortized bookkeeping).
func (t *Table) Unref(h *Handle) {
	t.meter.HandleUnref()
	h.refcount--
	if h.refcount <= 0 {
		delete(t.live, h.rid)
		t.bytes -= t.handleBytes()
	}
}

// Live returns the number of objects currently represented in memory.
func (t *Table) Live() int { return len(t.live) }

// MaxBytes returns the high-water mark of handle memory.
func (t *Table) MaxBytes() int64 { return t.maxBytes }

// Attr reads attribute i through the handle, charging one AttrGet.
func (t *Table) Attr(h *Handle, i int) (Value, error) {
	t.meter.AttrGet()
	return DecodeAttr(h.class, h.rec, i)
}

// CheckAttr is Attr for a value nobody reads: it charges the AttrGet and
// fails as Attr would, without decoding the value.
func (t *Table) CheckAttr(h *Handle, i int) error {
	t.meter.AttrGet()
	return CheckAttr(h.class, h.rec, i)
}

// AttrByName reads the named attribute through the handle.
func (t *Table) AttrByName(h *Handle, name string) (Value, error) {
	i := h.class.AttrIndex(name)
	if i < 0 {
		return Value{}, fmt.Errorf("object: class %s has no attribute %q", h.class.Name, name)
	}
	return t.Attr(h, i)
}
