package backend

import (
	"encoding/binary"
	"fmt"

	"treebench/internal/index"
	"treebench/internal/storage"
)

// disk is the paged on-disk B+-tree: the same node pages and algorithms
// as the in-memory oracle, plus a metadata page (the goDB idiom: magic,
// root, height, page and entry counts) that makes the structure
// self-describing on disk. Every operation reads the metadata page
// through the pager before touching a node — warm that is one client
// hit, cold it is a real fault — so the disk backend's point reads are
// honestly one page costlier than the oracle's, which keeps its
// descriptor in session memory for free.
//
// An in-memory mirror of the descriptor serves the pager-less interface
// methods (Len, Pages, Height — the planner's cost arithmetic) and is
// only written by mutations, which are never concurrent with reads on
// the same fork; the pager-driven read path trusts the page, not the
// mirror.
type disk struct {
	mirror *index.Tree
	meta   storage.PageID
	ctr    *counters
}

// Metadata page layout (little-endian, like the node pages):
//
//	0..4    magic "BTPG"
//	4..8    index id
//	8..12   root page
//	12..16  height
//	16..20  node pages (excluding this one)
//	20..28  entry count
const diskMagic = 0x42545047 // "BTPG"

func buildDisk(p storage.Pager, id uint32, name string, entries []index.Entry) (*disk, error) {
	d := &disk{ctr: &counters{}}
	t, err := index.Build(countingPager{p, &d.ctr.pagesWritten}, id, name, entries)
	if err != nil {
		return nil, err
	}
	return d.init(p, t)
}

// init allocates and writes the metadata page for a freshly built tree.
func (d *disk) init(p storage.Pager, t *index.Tree) (*disk, error) {
	meta, buf, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	d.mirror, d.meta = t, meta
	encodeDiskMeta(buf, t.State())
	if err := p.Write(meta); err != nil {
		return nil, err
	}
	d.ctr.pagesWritten.Add(1)
	return d, nil
}

func restoreDisk(st index.BackendState, numPages int) (*disk, error) {
	if int(st.Meta) >= numPages {
		return nil, fmt.Errorf("backend: %s metadata page %d beyond image (%d pages)",
			st.Tree.Name, st.Meta, numPages)
	}
	t, err := index.Restore(st.Tree, numPages)
	if err != nil {
		return nil, err
	}
	return &disk{mirror: t, meta: st.Meta, ctr: &counters{}}, nil
}

func encodeDiskMeta(buf []byte, st index.TreeState) {
	binary.LittleEndian.PutUint32(buf[0:4], diskMagic)
	binary.LittleEndian.PutUint32(buf[4:8], st.ID)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(st.Root))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(st.Height))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(st.Pages))
	binary.LittleEndian.PutUint64(buf[20:28], uint64(st.Len))
}

// load reads and decodes the metadata page, returning the descriptor the
// node-level operations run against. Name travels in the catalog, not
// the page; the mirror supplies it.
func (d *disk) load(p storage.Pager) (*index.Tree, error) {
	buf, err := p.Read(d.meta)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != diskMagic {
		return nil, fmt.Errorf("backend: %s metadata page %d has bad magic", d.mirror.Name, d.meta)
	}
	if got := binary.LittleEndian.Uint32(buf[4:8]); got != d.mirror.ID {
		return nil, fmt.Errorf("backend: %s metadata page %d names index %d, want %d",
			d.mirror.Name, d.meta, got, d.mirror.ID)
	}
	return index.FromState(index.TreeState{
		ID:     d.mirror.ID,
		Name:   d.mirror.Name,
		Root:   storage.PageID(binary.LittleEndian.Uint32(buf[8:12])),
		Height: int(binary.LittleEndian.Uint32(buf[12:16])),
		Pages:  int(binary.LittleEndian.Uint32(buf[16:20])),
		Len:    int(binary.LittleEndian.Uint64(buf[20:28])),
	}), nil
}

// store writes the post-mutation descriptor back to the metadata page
// and refreshes the mirror.
func (d *disk) store(p storage.Pager, t *index.Tree) error {
	buf, err := p.Read(d.meta)
	if err != nil {
		return err
	}
	encodeDiskMeta(buf, t.State())
	if err := p.Write(d.meta); err != nil {
		return err
	}
	d.ctr.pagesWritten.Add(1)
	d.mirror = t
	return nil
}

func (d *disk) Kind() string { return KindDisk }
func (d *disk) ID() uint32   { return d.mirror.ID }
func (d *disk) Name() string { return d.mirror.Name }
func (d *disk) Len() int     { return d.mirror.Len() }

// Pages counts the metadata page alongside the nodes.
func (d *disk) Pages() int  { return d.mirror.Pages() + 1 }
func (d *disk) Height() int { return d.mirror.Height() }

func (d *disk) Scan(p storage.Pager, lo, hi int64, fn func(index.Entry) (bool, error)) error {
	t, err := d.load(p)
	if err != nil {
		return err
	}
	return t.Scan(p, lo, hi, fn)
}

func (d *disk) ScanBatched(p storage.Pager, lo, hi int64, scratch []index.Entry, fn func([]index.Entry) (bool, error)) error {
	t, err := d.load(p)
	if err != nil {
		return err
	}
	return t.ScanBatched(p, lo, hi, scratch, fn)
}

func (d *disk) Lookup(p storage.Pager, key int64) ([]storage.Rid, error) {
	t, err := d.load(p)
	if err != nil {
		return nil, err
	}
	return t.Lookup(p, key)
}

func (d *disk) Insert(p storage.Pager, e index.Entry) error {
	t, err := d.load(p)
	if err != nil {
		return err
	}
	if err := t.Insert(countingPager{p, &d.ctr.pagesWritten}, e); err != nil {
		return err
	}
	return d.store(p, t)
}

func (d *disk) Delete(p storage.Pager, e index.Entry) (bool, error) {
	t, err := d.load(p)
	if err != nil {
		return false, err
	}
	ok, err := t.Delete(countingPager{p, &d.ctr.pagesWritten}, e)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	return true, d.store(p, t)
}

func (d *disk) MinKey(p storage.Pager) (int64, bool, error) {
	t, err := d.load(p)
	if err != nil {
		return 0, false, err
	}
	return t.MinKey(p)
}

func (d *disk) MaxKey(p storage.Pager) (int64, bool, error) {
	t, err := d.load(p)
	if err != nil {
		return 0, false, err
	}
	return t.MaxKey(p)
}

func (d *disk) Validate(p storage.Pager) error {
	t, err := d.load(p)
	if err != nil {
		return err
	}
	if t.State() != d.mirror.State() {
		return fmt.Errorf("backend: %s metadata page disagrees with catalog (%+v vs %+v)",
			d.mirror.Name, t.State(), d.mirror.State())
	}
	return t.Validate(p)
}

func (d *disk) Clone() index.Backend {
	return &disk{mirror: d.mirror.Clone(), meta: d.meta, ctr: &counters{}}
}

func (d *disk) Counters() index.BackendCounters { return d.ctr.snapshot() }

func (d *disk) State() index.BackendState {
	return index.BackendState{Kind: KindDisk, Tree: d.mirror.State(), Meta: d.meta}
}
