package persist

import (
	"encoding/binary"
	"fmt"

	"treebench/internal/storage"
)

// enc is an append-only payload encoder, mirroring the wire protocol's:
// big-endian integers, strings as u32 length + bytes.
type enc struct {
	b []byte
}

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) rid(r storage.Rid) {
	e.u32(uint32(r.Page))
	e.u16(r.Slot)
}

// sub writes one u32-length-prefixed sub-section: fill appends the body
// straight into e and the length is patched in afterwards, so a
// sub-section costs no buffer of its own.
func (e *enc) sub(fill func(*enc)) {
	e.u32(0)
	at := len(e.b)
	fill(e)
	binary.BigEndian.PutUint32(e.b[at-4:], uint32(len(e.b)-at))
}

// dec decodes a section payload. The first failed read latches err and
// turns every later read into a zero value, so decode functions read a
// whole section and check finish once. All errors wrap ErrFormat: a
// truncated or over-long payload inside a CRC-valid section means the
// writer and reader disagree about the format, not that the disk lied.
type dec struct {
	b       []byte
	off     int
	section string
	err     error
}

func newDec(b []byte, section string) *dec { return &dec{b: b, section: section} }

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s in %s section at offset %d",
			ErrFormat, what, d.section, d.off)
	}
}

func (d *dec) take(n int, what string) []byte {
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

func (d *dec) u8() byte {
	s := d.take(1, "u8")
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u16() uint16 {
	s := d.take(2, "u16")
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}

func (d *dec) u32() uint32 {
	s := d.take(4, "u32")
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (d *dec) u64() uint64 {
	s := d.take(8, "u64")
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

// boolv accepts only the canonical encodings 0 and 1, so decode∘encode is
// the identity on every accepted payload.
func (d *dec) boolv() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool")
		return false
	}
}

func (d *dec) str() string {
	n := d.u32()
	s := d.take(int(n), "string")
	return string(s)
}

func (d *dec) rid() storage.Rid {
	page := d.u32()
	slot := d.u16()
	return storage.Rid{Page: storage.PageID(page), Slot: slot}
}

// count reads a u32 element count and validates it against the bytes
// left, given a per-element lower bound, so a corrupt count cannot drive
// a huge allocation.
func (d *dec) count(minElem int, what string) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || minElem < 1 || n > (len(d.b)-d.off)/minElem {
		d.fail(what + " count")
		return 0
	}
	return n
}

// finish returns the latched error, also rejecting trailing garbage.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes in %s section",
			ErrFormat, len(d.b)-d.off, d.section)
	}
	return nil
}
