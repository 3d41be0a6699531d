package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Page layout (all offsets little-endian):
//
//	0..2   numSlots  uint16
//	2..4   freeStart uint16  end of the slot directory / start of free space
//	4..6   freeEnd   uint16  start of record data / end of free space
//	6..16  reserved
//	16..   slot directory, 4 bytes per slot: offset uint16, length uint16
//	...    free space
//	...    record payloads, packed from the page end downward
//
// A slot with offset 0xFFFF is a hole (deleted record). The high bit of a
// slot's length marks the record as a forwarding stub whose payload is the
// 8-byte Rid of the record's new home.
const (
	pageHeaderLen = 16
	slotLen       = 4

	holeOffset  = 0xFFFF
	forwardFlag = 0x8000
	maxRecord   = PageSize - pageHeaderLen - slotLen
)

// ErrPageFull is returned when a record does not fit in a page's free space.
var ErrPageFull = errors.New("storage: page full")

// ErrNoRecord is returned when a slot is out of range or a hole.
var ErrNoRecord = errors.New("storage: no record at slot")

// Page is a decoded view over one 4 KB page buffer. It does not own the
// buffer; mutations write through to it.
type Page struct {
	buf []byte
}

// NewPage formats buf (which must be PageSize bytes) as an empty page.
func NewPage(buf []byte) *Page {
	if len(buf) != PageSize {
		panic(fmt.Sprintf("storage: NewPage with %d-byte buffer", len(buf)))
	}
	p := &Page{buf: buf}
	p.setNumSlots(0)
	p.setFreeStart(pageHeaderLen)
	p.setFreeEnd(PageSize)
	return p
}

// LoadPage wraps an existing formatted page buffer.
func LoadPage(buf []byte) *Page {
	if len(buf) != PageSize {
		panic(fmt.Sprintf("storage: LoadPage with %d-byte buffer", len(buf)))
	}
	return &Page{buf: buf}
}

func (p *Page) numSlots() int      { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n)) }
func (p *Page) freeEnd() int       { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }
func (p *Page) setFreeEnd(n int)   { binary.LittleEndian.PutUint16(p.buf[4:6], uint16(n)) }

func (p *Page) slotAt(i int) (off, length int) {
	base := pageHeaderLen + i*slotLen
	off = int(binary.LittleEndian.Uint16(p.buf[base : base+2]))
	length = int(binary.LittleEndian.Uint16(p.buf[base+2 : base+4]))
	return off, length
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderLen + i*slotLen
	binary.LittleEndian.PutUint16(p.buf[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:base+4], uint16(length))
}

// NumSlots returns the number of slots in the directory, including holes.
func (p *Page) NumSlots() int { return p.numSlots() }

// FreeSpace returns the bytes available for one more record (accounting for
// its slot directory entry).
func (p *Page) FreeSpace() int {
	free := p.freeEnd() - p.freeStart() - slotLen
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec in the page and returns its slot number. Holes left by
// deletions are reused for the directory entry, but record space is only
// taken from the free area (no compaction here; see Compact).
func (p *Page) Insert(rec []byte) (uint16, error) {
	if len(rec) > maxRecord {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	slot := -1
	n := p.numSlots()
	for i := 0; i < n; i++ {
		if off, _ := p.slotAt(i); off == holeOffset {
			slot = i
			break
		}
	}
	need := len(rec)
	if slot == -1 {
		need += slotLen
	}
	if p.freeEnd()-p.freeStart() < need {
		return 0, ErrPageFull
	}
	if slot == -1 {
		slot = n
		p.setNumSlots(n + 1)
		p.setFreeStart(p.freeStart() + slotLen)
	}
	newEnd := p.freeEnd() - len(rec)
	copy(p.buf[newEnd:], rec)
	p.setFreeEnd(newEnd)
	p.setSlot(slot, newEnd, len(rec))
	return uint16(slot), nil
}

// Get returns the record bytes at slot. The returned slice aliases the page
// buffer; callers must not retain it across page evictions. forwarded
// reports whether the record is a forwarding stub (its payload is then the
// 8-byte target Rid).
func (p *Page) Get(slot uint16) (rec []byte, forwarded bool, err error) {
	if int(slot) >= p.numSlots() {
		return nil, false, ErrNoRecord
	}
	off, length := p.slotAt(int(slot))
	if off == holeOffset {
		return nil, false, ErrNoRecord
	}
	forwarded = length&forwardFlag != 0
	length &^= forwardFlag
	return p.buf[off : off+length], forwarded, nil
}

// Update replaces the record at slot in place. It fails with ErrPageFull if
// the new record is larger than the old one and does not fit in the page's
// free space; the caller then relocates (see File.Update).
func (p *Page) Update(slot uint16, rec []byte) error {
	if int(slot) >= p.numSlots() {
		return ErrNoRecord
	}
	off, length := p.slotAt(int(slot))
	if off == holeOffset {
		return ErrNoRecord
	}
	length &^= forwardFlag
	if len(rec) <= length {
		copy(p.buf[off:off+len(rec)], rec)
		p.setSlot(int(slot), off, len(rec))
		return nil
	}
	if len(rec) > p.freeEnd()-p.freeStart() {
		return ErrPageFull
	}
	newEnd := p.freeEnd() - len(rec)
	copy(p.buf[newEnd:], rec)
	p.setFreeEnd(newEnd)
	p.setSlot(int(slot), newEnd, len(rec))
	return nil
}

// Delete turns slot into a hole. The record space is reclaimed only by
// Compact.
func (p *Page) Delete(slot uint16) error {
	if int(slot) >= p.numSlots() {
		return ErrNoRecord
	}
	if off, _ := p.slotAt(int(slot)); off == holeOffset {
		return ErrNoRecord
	}
	p.setSlot(int(slot), holeOffset, 0)
	return nil
}

// SetForward replaces the record at slot with a forwarding stub to target.
// The stub reuses the record's space, so it always fits (records are never
// smaller than 8 bytes in this engine; if one were, Update's in-place path
// could not shrink below the stub size, so we guard anyway).
func (p *Page) SetForward(slot uint16, target Rid) error {
	if int(slot) >= p.numSlots() {
		return ErrNoRecord
	}
	off, length := p.slotAt(int(slot))
	if off == holeOffset {
		return ErrNoRecord
	}
	length &^= forwardFlag
	if length < EncodedRidLen {
		return fmt.Errorf("storage: record of %d bytes too small for forwarding stub", length)
	}
	stub := target.Encode(nil)
	copy(p.buf[off:off+EncodedRidLen], stub)
	p.setSlot(int(slot), off, EncodedRidLen|forwardFlag)
	return nil
}

// Compact rewrites the page so record space freed by deletions and
// shrinking updates becomes contiguous free space. Slot numbers (and hence
// Rids) are preserved.
func (p *Page) Compact() {
	type live struct {
		slot, off, length int
	}
	n := p.numSlots()
	records := make([]live, 0, n)
	for i := 0; i < n; i++ {
		off, length := p.slotAt(i)
		if off == holeOffset {
			continue
		}
		records = append(records, live{i, off, length})
	}
	// Copy live payloads out, then repack from the end.
	saved := make([][]byte, len(records))
	for i, r := range records {
		data := make([]byte, r.length&^forwardFlag)
		copy(data, p.buf[r.off:])
		saved[i] = data
	}
	end := PageSize
	for i, r := range records {
		end -= len(saved[i])
		copy(p.buf[end:], saved[i])
		p.setSlot(r.slot, end, len(saved[i])|(r.length&forwardFlag))
	}
	p.setFreeEnd(end)
}
