// Package codec is the one encoder and decoder under every byte format
// treebench writes: the wire protocol's frame payloads, the snapshot
// file's sections and the WAL's commit records. Integers are big-endian;
// a string is a u32 length and its bytes; a storage.Rid is a u32 page and
// a u16 slot; an object.Value is its kind byte and the kind's payload.
//
// The decoder latches its first failure and reads zeros from then on, so
// a decode function reads a whole payload and checks Finish once. The
// failure says what was being read and where; each format wraps it in its
// own contract when it returns it — wire's "wire:" prefix, persist's
// ErrFormat and section name.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"treebench/internal/object"
	"treebench/internal/storage"
)

// Enc is an append-only payload encoder. B is the payload so far; a
// caller that knows the final size may preallocate it.
type Enc struct {
	B []byte
}

func (e *Enc) U8(v byte)     { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16)  { e.B = binary.BigEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.BigEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.BigEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Raw(p []byte)  { e.B = append(e.B, p...) }
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}
func (e *Enc) Rid(r storage.Rid) {
	e.U32(uint32(r.Page))
	e.U16(r.Slot)
}

// Sub writes one u32-length-prefixed sub-section: fill appends the body
// straight into e and the length is patched in afterwards, so a
// sub-section costs no buffer of its own.
func (e *Enc) Sub(fill func(*Enc)) {
	e.U32(0)
	at := len(e.B)
	fill(e)
	binary.BigEndian.PutUint32(e.B[at-4:], uint32(len(e.B)-at))
}

// Value writes one object.Value. The kinds mirror the object layer: ints
// and chars carry their integer, strings their bytes, refs and sets their
// Rid.
func (e *Enc) Value(v object.Value) {
	e.U8(byte(v.Kind))
	switch v.Kind {
	case object.KindInt, object.KindChar:
		e.I64(v.Int)
	case object.KindString:
		e.Str(v.Str)
	case object.KindRef, object.KindSet:
		e.Rid(v.Ref)
	}
}

// Dec decodes one payload. The first failed read latches an error and
// turns every later read into a zero value.
type Dec struct {
	b   []byte
	off int
	err *failure
}

// failure is a payload the decoder could not read: a read past the end, a
// non-canonical bool, an unknown value kind, a count the remaining bytes
// cannot hold, or bytes left over after the last field.
type failure struct {
	what     string // what was being read; "" for trailing bytes
	off      int
	trailing int
}

func (f *failure) Error() string {
	if f.what == "" {
		return fmt.Sprintf("%d trailing bytes", f.trailing)
	}
	return fmt.Sprintf("truncated %s at offset %d", f.what, f.off)
}

// NewDec returns a decoder over b. Byte slices it returns alias b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = &failure{what: what, off: d.off}
	}
}

// Take returns the next n bytes.
func (d *Dec) Take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.fail(what)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *Dec) U8() byte {
	s := d.Take(1, "u8")
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *Dec) U16() uint16 {
	s := d.Take(2, "u16")
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}

func (d *Dec) U32() uint32 {
	s := d.Take(4, "u32")
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (d *Dec) U64() uint64 {
	s := d.Take(8, "u64")
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool accepts only the canonical encodings 0 and 1, so decode∘encode is
// the identity on every accepted payload.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool")
		return false
	}
}

func (d *Dec) Str() string {
	n := d.U32()
	return string(d.Take(int(n), "string"))
}

func (d *Dec) Rid() storage.Rid {
	page := d.U32()
	return storage.Rid{Page: storage.PageID(page), Slot: d.U16()}
}

// Sub reads one sub-section Enc.Sub wrote and returns its body.
func (d *Dec) Sub(what string) []byte {
	n := d.U32()
	return d.Take(int(n), what)
}

// Value reads one object.Value, rejecting a kind Enc.Value never writes.
func (d *Dec) Value() object.Value {
	v := object.Value{Kind: object.Kind(d.U8())}
	switch v.Kind {
	case object.KindInt, object.KindChar:
		v.Int = d.I64()
	case object.KindString:
		v.Str = d.Str()
	case object.KindRef, object.KindSet:
		v.Ref = d.Rid()
	default:
		d.fail("value kind")
	}
	return v
}

// Count reads a u32 element count and validates it against the bytes
// left, given a per-element lower bound of at least one byte, so a corrupt
// count cannot drive a huge allocation. The bound is checked by division:
// a product could wrap where int is 32 bits wide.
func (d *Dec) Count(minElem int, what string) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || minElem < 1 || n > (len(d.b)-d.off)/minElem {
		d.fail(what + " count")
		return 0
	}
	return n
}

// Err returns the latched failure, nil while every read has succeeded.
func (d *Dec) Err() error {
	if d.err == nil {
		return nil
	}
	return d.err
}

// Finish returns the latched failure, also rejecting trailing bytes.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = &failure{off: d.off, trailing: len(d.b) - d.off}
	}
	return d.Err()
}
