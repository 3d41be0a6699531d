// Package collection implements persistent sets of object references.
//
// A collection is a chain of chunk records, each holding up to ChunkElems
// Rids. Where the chunks live reproduces O2's placement rule from §2: a
// set whose encoding fits in a page is stored as a record in the same file
// as its owner ("although, in reality, not always right next to them"),
// while larger sets — the 1:1000 clients sets — are "always stored in a
// separate file".
package collection

import (
	"encoding/binary"
	"fmt"

	"treebench/internal/storage"
)

// chunk layout: next Rid (8 bytes) | count uint16 | count × Rid.
const chunkHeaderLen = storage.EncodedRidLen + 2

// ChunkElems is the maximum elements per chunk: chosen so a full chunk
// (8 + 2 + 420×8 = 3370 bytes) fits a heap page with its reserve.
const ChunkElems = 420

// InlineThreshold is the element count up to which a set is placed in its
// owner's file. Beyond it the encoded set would approach the page size, so
// it goes to a separate file (§2's 4K rule).
const InlineThreshold = ChunkElems

// Create writes rids as a new collection into file f and returns the Rid of
// the head chunk. An empty collection is a single empty chunk, so the head
// Rid always exists.
func Create(p storage.Pager, f *storage.File, rids []storage.Rid) (storage.Rid, error) {
	nChunks := (len(rids) + ChunkElems - 1) / ChunkElems
	if nChunks == 0 {
		nChunks = 1
	}
	// Write chunks back to front so each can point at its successor.
	next := storage.NilRid
	var head storage.Rid
	for c := nChunks - 1; c >= 0; c-- {
		lo := c * ChunkElems
		hi := lo + ChunkElems
		if hi > len(rids) {
			hi = len(rids)
		}
		part := rids[lo:hi]
		rec := make([]byte, 0, chunkHeaderLen+len(part)*storage.EncodedRidLen)
		rec = next.Encode(rec)
		var cnt [2]byte
		binary.LittleEndian.PutUint16(cnt[:], uint16(len(part)))
		rec = append(rec, cnt[:]...)
		for _, r := range part {
			rec = r.Encode(rec)
		}
		rid, err := f.Append(p, rec)
		if err != nil {
			return storage.Rid{}, err
		}
		next = rid
		head = rid
	}
	return head, nil
}

// decodeChunk splits a chunk record into its next pointer and elements.
func decodeChunk(rec []byte) (next storage.Rid, elems []byte, err error) {
	if len(rec) < chunkHeaderLen {
		return storage.Rid{}, nil, fmt.Errorf("collection: short chunk (%d bytes)", len(rec))
	}
	next, err = storage.DecodeRid(rec)
	if err != nil {
		return storage.Rid{}, nil, err
	}
	count := int(binary.LittleEndian.Uint16(rec[storage.EncodedRidLen:]))
	body := rec[chunkHeaderLen:]
	if len(body) < count*storage.EncodedRidLen {
		return storage.Rid{}, nil, fmt.Errorf("collection: chunk claims %d elements in %d bytes", count, len(body))
	}
	return next, body[:count*storage.EncodedRidLen], nil
}

// Scan calls fn for each element, in insertion order, following the chunk
// chain. Chunk reads are charged through the pager like any record access.
func Scan(p storage.Pager, head storage.Rid, fn func(storage.Rid) (bool, error)) error {
	for cur := head; !cur.IsNil(); {
		rec, err := storage.Get(p, cur)
		if err != nil {
			return err
		}
		next, elems, err := decodeChunk(rec)
		if err != nil {
			return err
		}
		for off := 0; off < len(elems); off += storage.EncodedRidLen {
			r, err := storage.DecodeRid(elems[off:])
			if err != nil {
				return err
			}
			ok, err := fn(r)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		cur = next
	}
	return nil
}

// Elems reads the whole collection into a slice.
func Elems(p storage.Pager, head storage.Rid) ([]storage.Rid, error) {
	var out []storage.Rid
	err := Scan(p, head, func(r storage.Rid) (bool, error) {
		out = append(out, r)
		return true, nil
	})
	return out, err
}

// Len returns the number of elements, reading only chunk headers (it still
// pages in each chunk, as the real system would).
func Len(p storage.Pager, head storage.Rid) (int, error) {
	total := 0
	for cur := head; !cur.IsNil(); {
		rec, err := storage.Get(p, cur)
		if err != nil {
			return 0, err
		}
		next, elems, err := decodeChunk(rec)
		if err != nil {
			return 0, err
		}
		total += len(elems) / storage.EncodedRidLen
		cur = next
	}
	return total, nil
}

// EncodedSize returns the total bytes a collection of n elements occupies,
// used by the database generator to apply the §2 placement rule.
func EncodedSize(n int) int {
	chunks := (n + ChunkElems - 1) / ChunkElems
	if chunks == 0 {
		chunks = 1
	}
	return chunks*chunkHeaderLen + n*storage.EncodedRidLen
}

// Add appends one element to the collection whose head chunk is at head.
// The element goes into the first chunk with room (chunks grow in place
// while their page has space, exactly the "growing collections" the page
// reserve exists for); a full chain gains a new chunk in file f.
func Add(p storage.Pager, f *storage.File, head storage.Rid, elem storage.Rid) error {
	cur := head
	for {
		rec, err := storage.Get(p, cur)
		if err != nil {
			return err
		}
		next, elems, err := decodeChunk(rec)
		if err != nil {
			return err
		}
		count := len(elems) / storage.EncodedRidLen
		if count < ChunkElems {
			// Grow this chunk in place (the record gets 8 bytes longer;
			// the page reserve usually absorbs it, relocation otherwise).
			grown := make([]byte, 0, len(rec)+storage.EncodedRidLen)
			grown = append(grown, rec[:chunkHeaderLen+len(elems)]...)
			grown = elem.Encode(grown)
			grown = append(grown, rec[chunkHeaderLen+len(elems):]...)
			binary.LittleEndian.PutUint16(grown[storage.EncodedRidLen:], uint16(count+1))
			_, err := f.Update(p, cur, grown)
			return err
		}
		if next.IsNil() {
			// Chain a fresh chunk holding the element.
			newHead, err := Create(p, f, []storage.Rid{elem})
			if err != nil {
				return err
			}
			patched := make([]byte, len(rec))
			copy(patched, rec)
			newHead.Encode(patched[:0:storage.EncodedRidLen])
			_, err = f.Update(p, cur, patched)
			return err
		}
		cur = next
	}
}

// Remove deletes one occurrence of elem from the collection, compacting
// the chunk it came from. It reports whether the element was found.
func Remove(p storage.Pager, f *storage.File, head storage.Rid, elem storage.Rid) (bool, error) {
	for cur := head; !cur.IsNil(); {
		rec, err := storage.Get(p, cur)
		if err != nil {
			return false, err
		}
		next, elems, err := decodeChunk(rec)
		if err != nil {
			return false, err
		}
		for off := 0; off < len(elems); off += storage.EncodedRidLen {
			r, err := storage.DecodeRid(elems[off:])
			if err != nil {
				return false, err
			}
			if r != elem {
				continue
			}
			count := len(elems) / storage.EncodedRidLen
			shrunk := make([]byte, 0, len(rec)-storage.EncodedRidLen)
			shrunk = append(shrunk, rec[:chunkHeaderLen+off]...)
			shrunk = append(shrunk, rec[chunkHeaderLen+off+storage.EncodedRidLen:chunkHeaderLen+len(elems)]...)
			binary.LittleEndian.PutUint16(shrunk[storage.EncodedRidLen:], uint16(count-1))
			if _, err := f.Update(p, cur, shrunk); err != nil {
				return false, err
			}
			return true, nil
		}
		cur = next
	}
	return false, nil
}
