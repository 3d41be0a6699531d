package object

import (
	"encoding/binary"
	"fmt"

	"treebench/internal/storage"
)

// Record header layout (§4.4 lists what O2 keeps per object; the on-disk
// half of it is this header):
//
//	0..2    classID     uint16
//	2       flags       uint8
//	3       indexCount  uint8   indexes this object currently belongs to
//	4..8    version     uint32
//	8..12   schemaEpoch uint32  schema-update history marker
//	12..14  indexCap    uint16  index slots allocated in this header
//	14..16  reserved
//	16..    indexCap × uint32 index ids
//	then    fixed-width attribute data (see Class layout)
//
// An object created while its collection is indexed gets DefaultIndexSlots
// slots (§3.2: "a header allowing to store information about 8 indexes");
// an object created unindexed gets none, and attaching the first index later
// forces the record to grow — the relocation storm the paper fell into.
const (
	baseHeaderLen = 16
	indexSlotLen  = 4

	// DefaultIndexSlots is the index capacity given to objects that are
	// born into an indexed collection.
	DefaultIndexSlots = 8
)

// Header flag bits.
const (
	FlagPersistent = 1 << 0
	FlagDeleted    = 1 << 1
)

// HeaderLen returns the header size for a given index capacity.
func HeaderLen(indexCap int) int { return baseHeaderLen + indexCap*indexSlotLen }

// EncodedLen returns the record size of an object of class c with the given
// index capacity.
func EncodedLen(c *Class, indexCap int) int { return HeaderLen(indexCap) + c.Width() }

// Encode serializes an object. values must match c.Attrs. indexCap is the
// number of index slots to allocate in the header.
func Encode(c *Class, values []Value, indexCap int) ([]byte, error) {
	if len(values) != len(c.Attrs) {
		return nil, fmt.Errorf("object: class %s has %d attributes, got %d values", c.Name, len(c.Attrs), len(values))
	}
	rec := make([]byte, EncodedLen(c, indexCap))
	binary.LittleEndian.PutUint16(rec[0:2], c.ID)
	rec[2] = FlagPersistent
	setRecordEpoch(rec, c.Epoch())
	binary.LittleEndian.PutUint16(rec[12:14], uint16(indexCap))
	base := HeaderLen(indexCap)
	for i, v := range values {
		a := c.Attrs[i]
		if v.Kind != a.Kind {
			return nil, fmt.Errorf("object: %s.%s is %v, got %v", c.Name, a.Name, a.Kind, v.Kind)
		}
		off := base + c.offsets[i]
		switch a.Kind {
		case KindInt:
			binary.LittleEndian.PutUint32(rec[off:off+4], uint32(int32(v.Int)))
		case KindChar:
			rec[off] = byte(v.Int)
		case KindString:
			if len(v.Str) > a.StrLen {
				return nil, fmt.Errorf("object: %s.%s: string %q exceeds width %d", c.Name, a.Name, v.Str, a.StrLen)
			}
			copy(rec[off:off+a.StrLen], v.Str)
		case KindRef, KindSet:
			v.Ref.Encode(rec[off : off : off+storage.EncodedRidLen])
		}
	}
	return rec, nil
}

// ClassID reads the class id from a record without decoding the rest.
func ClassID(rec []byte) uint16 { return binary.LittleEndian.Uint16(rec[0:2]) }

// headerLenOf reads the actual header length of a record.
func headerLenOf(rec []byte) int {
	cap := int(binary.LittleEndian.Uint16(rec[12:14]))
	return HeaderLen(cap)
}

// DecodeAttr extracts attribute i of class c from rec without touching the
// others — the engine's get_att.
func DecodeAttr(c *Class, rec []byte, i int) (Value, error) {
	if uint(i) >= uint(len(c.Attrs)) || !carriesAttr(c, rec, i) {
		return absentAttr(c, i)
	}
	a := c.Attrs[i]
	off := headerLenOf(rec) + c.offsets[i]
	if off+a.size() > len(rec) {
		return Value{}, errShortRecord(c, a)
	}
	switch a.Kind {
	case KindInt:
		return IntValue(int64(int32(binary.LittleEndian.Uint32(rec[off : off+4])))), nil
	case KindChar:
		return CharValue(rec[off]), nil
	case KindString:
		b := rec[off : off+a.StrLen]
		end := len(b)
		for end > 0 && b[end-1] == 0 {
			end--
		}
		return StringValue(string(b[:end])), nil
	case KindRef:
		r, err := storage.DecodeRid(rec[off:])
		if err != nil {
			return Value{}, err
		}
		return RefValue(r), nil
	case KindSet:
		r, err := storage.DecodeRid(rec[off:])
		if err != nil {
			return Value{}, err
		}
		return SetValue(r), nil
	default:
		return Value{}, fmt.Errorf("object: unknown kind %v", a.Kind)
	}
}

// CheckAttr runs DecodeAttr's checks on attribute i of rec — the index
// bounds, the default of an attribute the record predates, the record's
// length — without decoding the value, so a get_att whose value the
// caller discards builds nothing. It returns the error DecodeAttr would,
// except a reference's rid decode error.
func CheckAttr(c *Class, rec []byte, i int) error {
	if uint(i) >= uint(len(c.Attrs)) || !carriesAttr(c, rec, i) {
		_, err := absentAttr(c, i)
		return err
	}
	if a := c.Attrs[i]; headerLenOf(rec)+c.offsets[i]+a.size() > len(rec) {
		return errShortRecord(c, a)
	}
	return nil
}

// absentAttr answers a get_att of an attribute rec does not carry: an
// error when i is outside the class, else the default registered for
// records that predate the attribute (dynamic class evolution).
func absentAttr(c *Class, i int) (Value, error) {
	if i < 0 || i >= len(c.Attrs) {
		return Value{}, fmt.Errorf("object: class %s has no attribute %d", c.Name, i)
	}
	def, ok := c.defaultFor(i)
	if !ok {
		return Value{}, fmt.Errorf("object: record predates %s.%s and no default exists", c.Name, c.Attrs[i].Name)
	}
	return def, nil
}

func errShortRecord(c *Class, a Attr) error {
	return fmt.Errorf("object: record too short for %s.%s", c.Name, a.Name)
}

// EncodeAttrInPlace overwrites attribute i inside rec. The record size does
// not change (all Derby attributes are fixed-width).
func EncodeAttrInPlace(c *Class, rec []byte, i int, v Value) error {
	a := c.Attrs[i]
	if v.Kind != a.Kind {
		return fmt.Errorf("object: %s.%s is %v, got %v", c.Name, a.Name, a.Kind, v.Kind)
	}
	if !carriesAttr(c, rec, i) {
		return fmt.Errorf("%w (%s.%s)", ErrStaleRecord, c.Name, a.Name)
	}
	off := headerLenOf(rec) + c.offsets[i]
	if off+a.size() > len(rec) {
		return fmt.Errorf("object: record too short for %s.%s", c.Name, a.Name)
	}
	switch a.Kind {
	case KindInt:
		binary.LittleEndian.PutUint32(rec[off:off+4], uint32(int32(v.Int)))
	case KindChar:
		rec[off] = byte(v.Int)
	case KindString:
		if len(v.Str) > a.StrLen {
			return fmt.Errorf("object: string %q exceeds width %d", v.Str, a.StrLen)
		}
		for j := 0; j < a.StrLen; j++ {
			rec[off+j] = 0
		}
		copy(rec[off:], v.Str)
	case KindRef, KindSet:
		v.Ref.Encode(rec[off : off : off+storage.EncodedRidLen])
	}
	return nil
}

// IndexRefs returns the index ids recorded in the object header.
func IndexRefs(rec []byte) []uint32 {
	count := int(rec[3])
	out := make([]uint32, 0, count)
	for i := 0; i < count; i++ {
		off := baseHeaderLen + i*indexSlotLen
		out = append(out, binary.LittleEndian.Uint32(rec[off:off+4]))
	}
	return out
}

// AddIndexRef records membership in index id. If the header has a free
// slot, rec is updated in place and returned with grown=false. Otherwise a
// new, larger record is returned (grown=true) and the caller must rewrite
// it through File.Update — which may relocate the object (§3.2).
func AddIndexRef(rec []byte, id uint32) (out []byte, grown bool, err error) {
	capSlots := int(binary.LittleEndian.Uint16(rec[12:14]))
	count := int(rec[3])
	for i := 0; i < count; i++ {
		off := baseHeaderLen + i*indexSlotLen
		if binary.LittleEndian.Uint32(rec[off:off+4]) == id {
			return rec, false, nil // already a member
		}
	}
	if count < capSlots {
		off := baseHeaderLen + count*indexSlotLen
		binary.LittleEndian.PutUint32(rec[off:off+4], id)
		rec[3] = byte(count + 1)
		return rec, false, nil
	}
	if count >= 255 {
		return nil, false, fmt.Errorf("object: index membership overflow")
	}
	// Grow the header by DefaultIndexSlots more slots.
	newCap := capSlots + DefaultIndexSlots
	grownRec := make([]byte, len(rec)+DefaultIndexSlots*indexSlotLen)
	copy(grownRec[:baseHeaderLen], rec[:baseHeaderLen])
	copy(grownRec[baseHeaderLen:], rec[baseHeaderLen:baseHeaderLen+capSlots*indexSlotLen])
	copy(grownRec[HeaderLen(newCap):], rec[HeaderLen(capSlots):])
	binary.LittleEndian.PutUint16(grownRec[12:14], uint16(newCap))
	off := baseHeaderLen + count*indexSlotLen
	binary.LittleEndian.PutUint32(grownRec[off:off+4], id)
	grownRec[3] = byte(count + 1)
	return grownRec, true, nil
}
