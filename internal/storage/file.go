package storage

import (
	"errors"
	"fmt"
)

// reservePerPage is the free space the engine leaves in each page when
// appending, "to deal with growing strings or collections" (§2). It is what
// makes a 10⁶×3 database occupy about 33,000 provider pages and 49,000
// patient pages, as the paper computes.
const reservePerPage = (PageSize - pageHeaderLen) / 10

// ErrBadFile is returned when a file name is unknown or already taken.
var ErrBadFile = errors.New("storage: bad file")

// File is a heap file: an ordered list of pages with an append cursor.
// Objects of one class (class clustering), the whole database (random
// organization) or a parent with its children (composition clustering) all
// live in Files; the layout difference is purely in who appends what, when.
type File struct {
	Name  string
	Pages []PageID

	// appendPage is the index in Pages that Append last used; earlier
	// pages are considered closed (their reserve is for growth, not new
	// records).
	appendPage int
}

// NumPages returns the number of pages in the file.
func (f *File) NumPages() int { return len(f.Pages) }

// Clone returns an independent copy of the file's metadata for a forked
// session. The page-id slice is capacity-clipped, so a fork's first Append
// reallocates instead of scribbling over the shared template's backing
// array — the clone is O(1) in the file's data size.
func (f *File) Clone() *File {
	return &File{
		Name:       f.Name,
		Pages:      f.Pages[:len(f.Pages):len(f.Pages)],
		appendPage: f.appendPage,
	}
}

// Append stores rec at the end of the file and returns its Rid. Pages are
// closed once their free space drops under the per-page reserve.
func (f *File) Append(p Pager, rec []byte) (Rid, error) {
	if len(rec) > maxRecord-reservePerPage {
		return Rid{}, fmt.Errorf("storage: record of %d bytes too large for a heap page", len(rec))
	}
	if f.appendPage < len(f.Pages) {
		id := f.Pages[f.appendPage]
		buf, err := p.Read(id)
		if err != nil {
			return Rid{}, err
		}
		page := LoadPage(buf)
		if page.FreeSpace()-len(rec) >= reservePerPage {
			slot, err := page.Insert(rec)
			if err == nil {
				if err := p.Write(id); err != nil {
					return Rid{}, err
				}
				return Rid{Page: id, Slot: slot}, nil
			}
			if !errors.Is(err, ErrPageFull) {
				return Rid{}, err
			}
		}
	}
	id, buf, err := p.Alloc()
	if err != nil {
		return Rid{}, err
	}
	page := NewPage(buf)
	slot, err := page.Insert(rec)
	if err != nil {
		return Rid{}, err
	}
	if err := p.Write(id); err != nil {
		return Rid{}, err
	}
	f.Pages = append(f.Pages, id)
	f.appendPage = len(f.Pages) - 1
	return Rid{Page: id, Slot: slot}, nil
}

// Get returns the record at rid, following at most one forwarding stub (a
// relocated record is never relocated to another stub). The extra page read
// a stub causes is charged naturally through the Pager.
func Get(p Pager, rid Rid) ([]byte, error) {
	if rid.IsNil() {
		return nil, fmt.Errorf("%w: nil rid", ErrNoRecord)
	}
	buf, err := p.Read(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, forwarded, err := LoadPage(buf).Get(rid.Slot)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rid, err)
	}
	if !forwarded {
		return rec, nil
	}
	target, err := DecodeRid(rec)
	if err != nil {
		return nil, err
	}
	buf, err = p.Read(target.Page)
	if err != nil {
		return nil, err
	}
	rec, forwarded, err = LoadPage(buf).Get(target.Slot)
	if err != nil {
		return nil, fmt.Errorf("%s→%s: %w", rid, target, err)
	}
	if forwarded {
		return nil, fmt.Errorf("storage: double forwarding at %s", rid)
	}
	return rec, nil
}

// Update replaces the record at rid. If the new record no longer fits in
// its page, it is relocated to the end of the file — "maybe far from their
// owner" (§5.2) — behind a forwarding stub, and relocated reports true.
// This is the mechanism that §3.2's index-after-load blunder triggers for
// every object in a collection.
func (f *File) Update(p Pager, rid Rid, rec []byte) (relocated bool, err error) {
	buf, err := p.Read(rid.Page)
	if err != nil {
		return false, err
	}
	page := LoadPage(buf)
	old, forwarded, err := page.Get(rid.Slot)
	if err != nil {
		return false, err
	}
	if forwarded {
		// Update the record at its relocated home instead.
		target, err := DecodeRid(old)
		if err != nil {
			return false, err
		}
		tbuf, err := p.Read(target.Page)
		if err != nil {
			return false, err
		}
		tpage := LoadPage(tbuf)
		if err := tpage.Update(target.Slot, rec); err == nil {
			return false, p.Write(target.Page)
		} else if !errors.Is(err, ErrPageFull) {
			return false, err
		}
		tpage.Compact()
		if err := tpage.Update(target.Slot, rec); err == nil {
			return false, p.Write(target.Page)
		} else if !errors.Is(err, ErrPageFull) {
			return false, err
		}
		// The relocated record outgrew its second home too: move it
		// again and retarget the original stub (never a chain of stubs),
		// freeing the old copy.
		newRid, err := f.Append(p, rec)
		if err != nil {
			return false, err
		}
		if err := tpage.Delete(target.Slot); err != nil {
			return false, err
		}
		if err := p.Write(target.Page); err != nil {
			return false, err
		}
		if err := page.SetForward(rid.Slot, newRid); err != nil {
			return false, err
		}
		return true, p.Write(rid.Page)
	}
	if err := page.Update(rid.Slot, rec); err == nil {
		return false, p.Write(rid.Page)
	} else if !errors.Is(err, ErrPageFull) {
		return false, err
	}
	page.Compact()
	if err := page.Update(rid.Slot, rec); err == nil {
		return false, p.Write(rid.Page)
	} else if !errors.Is(err, ErrPageFull) {
		return false, err
	}
	newRid, err := f.Append(p, rec)
	if err != nil {
		return false, err
	}
	if err := page.SetForward(rid.Slot, newRid); err != nil {
		return false, err
	}
	return true, p.Write(rid.Page)
}

// Prefetcher is the optional Pager capability scan operators use to batch
// their upcoming page fetches into fewer RPCs.
type Prefetcher interface {
	ReadAheadBatch() int
	Prefetch(ids []PageID)
}

// Scan calls fn for every live record in file order, skipping holes and
// forwarding stubs (relocated records are visited at their new position, so
// a relocation-scarred file is scanned out of logical order — the paper's
// "this destroys the physical organization"). When the pager supports
// prefetching, upcoming file pages are batched into single RPCs. Scanning
// stops early if fn returns false or an error.
func (f *File) Scan(p Pager, fn func(rid Rid, rec []byte) (bool, error)) error {
	return f.ScanRange(p, 0, len(f.Pages), fn, nil)
}

// ScanRange scans the contiguous page run Pages[from:to) exactly like Scan
// scans the whole file: records in file order, holes and forwarding stubs
// skipped, prefetch batches restarted at the range boundary. It is the read
// path of one partitioned-scan chunk; chunking a file into disjoint ranges
// visits every live record exactly once. pageDone, when not nil, runs
// after the records of each page and before the next page is read: the
// scan itself then holds no page buffer.
func (f *File) ScanRange(p Pager, from, to int, fn func(rid Rid, rec []byte) (bool, error), pageDone func() error) error {
	if from < 0 || to > len(f.Pages) || from > to {
		return fmt.Errorf("storage: scan range [%d,%d) outside file of %d pages", from, to, len(f.Pages))
	}
	pages := f.Pages[from:to]
	pf, _ := p.(Prefetcher)
	batch := 1
	if pf != nil {
		batch = pf.ReadAheadBatch()
	}
	for pi, id := range pages {
		if batch > 1 && pi%batch == 0 {
			hi := pi + batch
			if hi > len(pages) {
				hi = len(pages)
			}
			pf.Prefetch(pages[pi:hi])
		}
		buf, err := p.Read(id)
		if err != nil {
			return err
		}
		page := LoadPage(buf)
		n := page.NumSlots()
		for s := 0; s < n; s++ {
			rec, forwarded, err := page.Get(uint16(s))
			if errors.Is(err, ErrNoRecord) {
				continue
			}
			if err != nil {
				return err
			}
			if forwarded {
				continue
			}
			ok, err := fn(Rid{Page: id, Slot: uint16(s)}, rec)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		if pageDone != nil {
			if err := pageDone(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanForwards calls fn for every forwarding stub in the file with the
// stub's rid (the record's original, stable identity) and its relocation
// target. Diagnostics like relationship verification use it to
// canonicalize the rids a relocation-scarred Scan reports back to the
// identities the rest of the database stores.
func (f *File) ScanForwards(p Pager, fn func(stub, target Rid) (bool, error)) error {
	for _, id := range f.Pages {
		buf, err := p.Read(id)
		if err != nil {
			return err
		}
		page := LoadPage(buf)
		n := page.NumSlots()
		for s := 0; s < n; s++ {
			rec, forwarded, err := page.Get(uint16(s))
			if errors.Is(err, ErrNoRecord) {
				continue
			}
			if err != nil {
				return err
			}
			if !forwarded {
				continue
			}
			target, err := DecodeRid(rec)
			if err != nil {
				return err
			}
			ok, err := fn(Rid{Page: id, Slot: uint16(s)}, target)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	return nil
}

// Store is the catalog of files on one disk. File metadata lives in memory;
// persisting the catalog itself is outside the scope of the reproduction.
type Store struct {
	Disk  *Disk
	files map[string]*File
	order []string
}

// NewStore returns a Store over a fresh disk of the given capacity
// (0 = unbounded).
func NewStore(capacityBytes int64) *Store {
	return &Store{Disk: NewDisk(capacityBytes), files: make(map[string]*File)}
}

// CreateFile adds an empty file. It fails if the name is taken.
func (s *Store) CreateFile(name string) (*File, error) {
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("%w: %q already exists", ErrBadFile, name)
	}
	f := &File{Name: name}
	s.files[name] = f
	s.order = append(s.order, name)
	return f, nil
}

// File returns the named file.
func (s *Store) File(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q not found", ErrBadFile, name)
	}
	return f, nil
}

// Freeze seals the store's disk into a shared immutable Base (see
// Disk.Freeze). The store itself stays usable read-only; Fork builds
// per-session stores over the returned base.
func (s *Store) Freeze() (*Base, error) {
	return s.Disk.Freeze()
}

// Fork returns a per-session copy of the catalog over disk d (a fork of
// the base this store was frozen into): every file's metadata is cloned,
// the page data stays shared through d. The cost is proportional to the
// number of files, not the data.
func (s *Store) Fork(d *Disk) *Store {
	ns := &Store{
		Disk:  d,
		files: make(map[string]*File, len(s.files)),
		order: append([]string(nil), s.order...),
	}
	for name, f := range s.files {
		ns.files[name] = f.Clone()
	}
	return ns
}
