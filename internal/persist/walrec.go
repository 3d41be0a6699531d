package persist

import (
	"fmt"

	"treebench/internal/codec"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/storage"
)

// WAL commit records. A commit ships what is needed to rebuild the
// version it created over its parent: the copy-on-write delta (overlaid
// and appended pages) plus the post-commit engine catalog, which reuses
// the snapshot file's section codecs byte for byte and keeps replay a
// pure RestoreSnapshot instead of a catalog-patching protocol. The
// catalog is O(pages + classes + indexes): the file page lists weigh 4
// bytes a data page and the histograms 1.5 KB an index, 28 KB in all at
// 200 000 patients — 4 % of a record whose other 96 % is page images
// (EXPERIMENTS.md has the table). The derby bookkeeping is not shipped:
// scale and rid maps never change after generation (rids are stable
// across commits), they weigh 6 bytes an object — 1.2 MB at that scale —
// and Apply takes them from the parent version.
//
// Payload layout (big-endian, inside one wal record whose length and
// CRC-32C the log itself frames):
//
//	u64 version | u64 wave | u32 parentPages
//	u32 overlayCount, overlayCount × (u32 pageID + 4 KB page)
//	u32 appendedCount, appendedCount × 4 KB page
//	8 × (u32 len + body): meta, catalog, registry, extents, trees,
//	                      histograms, derby, backends — the snapshot-file
//	                      sections; derby has len 0 (records written
//	                      before that carry the full section: it is
//	                      checked and ignored, and they still replay)

// CommitRecord is one decoded WAL commit.
type CommitRecord struct {
	Version     uint64
	Wave        uint64
	ParentPages int // page count of the parent base, checked before Apply

	OverlayIDs    []storage.PageID
	OverlayPages  [][]byte // aligned with OverlayIDs
	AppendedPages [][]byte

	// State is the version's engine catalog. The derby bookkeeping is not
	// part of a record (an old record's copy is checked and dropped):
	// Apply inherits it from the parent.
	State *engine.SnapshotState
}

// EncodeCommit serializes a commit: the published delta plus the new
// version's engine catalog (st.Engine; the rest of st is not logged).
// The catalog sections are built aside first — they are the only part
// whose length is not known up front, and 28 KB at 200 000 patients (the
// scratch starts at 32 KB and grows past that) — so the payload itself is
// one buffer of exactly its final length.
func EncodeCommit(version, wave uint64, delta *storage.Delta, st *derby.SnapshotState) []byte {
	es := st.Engine
	cat := codec.Enc{B: make([]byte, 0, 32<<10)}
	cat.Sub(func(e *codec.Enc) { encodeMeta(e, es) })
	cat.Sub(func(e *codec.Enc) { encodeCatalog(e, es.Files) })
	cat.Sub(func(e *codec.Enc) { encodeRegistry(e, es.Classes) })
	cat.Sub(func(e *codec.Enc) { encodeExtents(e, es) })
	cat.Sub(func(e *codec.Enc) { encodeTrees(e, es) })
	cat.Sub(func(e *codec.Enc) { encodeHistograms(e, es) })
	cat.U32(0) // derby: empty, Apply inherits the bookkeeping from the parent
	cat.Sub(func(e *codec.Enc) { encodeBackends(e, es) })

	ids := delta.OverlayIDs()
	app := delta.Appended()
	size := 8 + 8 + 4 + 4 + len(ids)*(4+storage.PageSize) + 4 + len(app)*storage.PageSize + len(cat.B)
	e := codec.Enc{B: make([]byte, 0, size)}
	e.U64(version)
	e.U64(wave)
	e.U32(uint32(delta.Parent().NumPages()))
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U32(uint32(id))
		e.Raw(delta.OverlayPage(id))
	}
	e.U32(uint32(len(app)))
	for _, pg := range app {
		e.Raw(pg)
	}
	e.Raw(cat.B)
	return e.B
}

// DecodeCommit parses a commit payload. Failures are typed ErrFormat
// errors, never panics — the payload passed the log's CRC, so a parse
// failure means writer/reader disagreement, not disk corruption.
func DecodeCommit(b []byte) (*CommitRecord, error) {
	d := codec.NewDec(b)
	r := &CommitRecord{
		Version:     d.U64(),
		Wave:        d.U64(),
		ParentPages: int(d.U32()),
	}
	no := d.Count(4+storage.PageSize, "overlay page")
	r.OverlayIDs = make([]storage.PageID, 0, no)
	r.OverlayPages = make([][]byte, 0, no)
	for i := 0; i < no; i++ {
		r.OverlayIDs = append(r.OverlayIDs, storage.PageID(d.U32()))
		r.OverlayPages = append(r.OverlayPages, d.Take(storage.PageSize, "overlay page"))
	}
	na := d.Count(storage.PageSize, "appended page")
	r.AppendedPages = make([][]byte, 0, na)
	for i := 0; i < na; i++ {
		r.AppendedPages = append(r.AppendedPages, d.Take(storage.PageSize, "appended page"))
	}
	est := &engine.SnapshotState{}
	if err := decodeMeta(d.Sub("meta"), est); err != nil {
		return nil, err
	}
	var err error
	if est.Files, err = decodeCatalog(d.Sub("catalog")); err != nil {
		return nil, err
	}
	if est.Classes, err = decodeRegistry(d.Sub("registry")); err != nil {
		return nil, err
	}
	if err := decodeExtents(d.Sub("extents"), est); err != nil {
		return nil, err
	}
	if err := decodeTrees(d.Sub("trees"), est); err != nil {
		return nil, err
	}
	if err := decodeHistograms(d.Sub("histograms"), est); err != nil {
		return nil, err
	}
	if book := d.Sub("derby"); len(book) > 0 {
		if _, err := decodeDerby(book); err != nil {
			return nil, err
		}
	}
	if err := decodeBackends(d.Sub("backends"), est); err != nil {
		return nil, err
	}
	if err := finish(d, "commit"); err != nil {
		return nil, err
	}
	r.State = est
	return r, nil
}

// Apply rebuilds the version a commit record describes over its parent
// snapshot: the record's pages become a storage.Delta layered on the
// parent's base, and the record's catalog is restored over the resulting
// DeltaBase, with the derby bookkeeping rebound from the parent. The
// returned snapshot has its lineage stamped (walOff is the record's
// offset in the log) and shares every untouched page with the parent.
func (r *CommitRecord) Apply(parent *derby.Snapshot, walOff int64) (*derby.Snapshot, error) {
	base := parent.Engine.Base()
	if base.NumPages() != r.ParentPages {
		return nil, fmt.Errorf("%w: commit v%d expects a %d-page parent, have %d pages",
			ErrFormat, r.Version, r.ParentPages, base.NumPages())
	}
	overlay := make(map[storage.PageID][]byte, len(r.OverlayIDs))
	for i, id := range r.OverlayIDs {
		overlay[id] = r.OverlayPages[i]
	}
	delta, err := storage.NewDelta(base, overlay, r.AppendedPages)
	if err != nil {
		return nil, err
	}
	es, err := engine.RestoreSnapshot(storage.NewDeltaBase(delta), r.State)
	if err != nil {
		return nil, err
	}
	es.SetLineage(r.Version, delta.Pages(), walOff)
	return parent.WithEngine(es), nil
}
