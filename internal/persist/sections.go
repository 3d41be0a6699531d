package persist

import (
	"fmt"
	"time"

	"treebench/internal/backend"
	"treebench/internal/codec"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/histogram"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Section payload codecs, written with internal/codec. Each encodeX must
// round-trip exactly through its decodeX: the Cache's soundness rests on
// Save being deterministic and Load(Save(snap)) reproducing snap
// bit-for-bit. The catalog is split across sections so corruption
// localizes — a flipped byte in the histograms section names
// "histograms", not "snapshot".
//
// The trees and histograms sections are positionally aligned with the
// extents section: entry i describes the i-th index in extent-major
// order. Load cross-checks the counts.

// finish returns d's failure, if any, as an ErrFormat naming the section:
// a payload that does not decode inside a CRC-valid section means writer
// and reader disagree about the format, not that the disk lied.
func finish(d *codec.Dec, section string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: %s section: %v", ErrFormat, section, err)
	}
	return nil
}

// --- meta ---

func encodeMeta(e *codec.Enc, st *engine.SnapshotState) {
	e.I64(st.Machine.RAM)
	e.I64(st.Machine.ServerCache)
	e.I64(st.Machine.ClientCache)
	e.I64(st.Machine.HashBudget)
	for _, d := range st.Model.Fields() {
		e.I64(int64(*d))
	}
	e.U8(byte(st.Mode))
	e.U32(st.NextIdx)
}

func decodeMeta(b []byte, st *engine.SnapshotState) error {
	d := codec.NewDec(b)
	st.Machine = sim.Machine{
		RAM:         d.I64(),
		ServerCache: d.I64(),
		ClientCache: d.I64(),
		HashBudget:  d.I64(),
	}
	for _, f := range st.Model.Fields() {
		*f = time.Duration(d.I64())
	}
	st.Mode = txn.Mode(d.U8())
	st.NextIdx = d.U32()
	return finish(d, "meta")
}

// --- catalog ---

func encodeCatalog(e *codec.Enc, files []storage.FileState) {
	e.U32(uint32(len(files)))
	for _, f := range files {
		e.Str(f.Name)
		e.U32(uint32(f.AppendPage))
		e.U32(uint32(len(f.Pages)))
		for _, id := range f.Pages {
			e.U32(uint32(id))
		}
	}
}

func decodeCatalog(b []byte) ([]storage.FileState, error) {
	d := codec.NewDec(b)
	n := d.Count(9, "file")
	files := make([]storage.FileState, 0, n)
	for i := 0; i < n; i++ {
		f := storage.FileState{
			Name:       d.Str(),
			AppendPage: int(d.U32()),
		}
		np := d.Count(4, "page list")
		f.Pages = make([]storage.PageID, np)
		for j := range f.Pages {
			f.Pages[j] = storage.PageID(d.U32())
		}
		files = append(files, f)
	}
	if err := finish(d, "catalog"); err != nil {
		return nil, err
	}
	return files, nil
}

// --- registry ---

func encodeRegistry(e *codec.Enc, st *object.RegistryState) {
	e.U16(st.NextID)
	e.U32(uint32(len(st.Classes)))
	for _, c := range st.Classes {
		e.U16(c.ID)
		e.Str(c.Name)
		e.Str(c.Parent)
		e.U32(uint32(c.OrigAttrs))
		e.U32(uint32(len(c.Attrs)))
		for _, a := range c.Attrs {
			e.Str(a.Name)
			e.U8(byte(a.Kind))
			e.U32(uint32(a.StrLen))
		}
		e.U32(uint32(len(c.Defaults)))
		for _, v := range c.Defaults {
			e.Value(v)
		}
	}
}

func decodeRegistry(b []byte) (*object.RegistryState, error) {
	d := codec.NewDec(b)
	st := &object.RegistryState{NextID: d.U16()}
	n := d.Count(15, "class")
	for i := 0; i < n; i++ {
		c := object.ClassState{
			ID:     d.U16(),
			Name:   d.Str(),
			Parent: d.Str(),
		}
		c.OrigAttrs = int(d.U32())
		na := d.Count(9, "attr")
		c.Attrs = make([]object.Attr, na)
		for j := range c.Attrs {
			c.Attrs[j] = object.Attr{
				Name:   d.Str(),
				Kind:   object.Kind(d.U8()),
				StrLen: int(d.U32()),
			}
		}
		nd := d.Count(1, "default")
		c.Defaults = make([]object.Value, nd)
		for j := range c.Defaults {
			c.Defaults[j] = d.Value()
		}
		st.Classes = append(st.Classes, c)
	}
	if err := finish(d, "registry"); err != nil {
		return nil, err
	}
	return st, nil
}

// --- extents (plus relationships) ---

// The section keeps the named-roots list of the reachability collector
// this engine no longer has: it is written empty, so files stay
// byte-identical across that deletion, and a file that names a root is
// refused, since no build ever wrote one from a generated database.

func encodeExtents(e *codec.Enc, st *engine.SnapshotState) {
	e.U32(uint32(len(st.Extents)))
	for _, ex := range st.Extents {
		e.Str(ex.Name)
		e.Str(ex.Class)
		e.Str(ex.File)
		e.Bool(ex.IndexedAtCreation)
		e.I64(int64(ex.Count))
		e.U32(uint32(len(ex.Indexes)))
		for _, ix := range ex.Indexes {
			e.Str(ix.Attr)
			e.Bool(ix.Clustered)
		}
	}
	e.U32(0) // named roots
	e.U32(uint32(len(st.Rels)))
	for _, r := range st.Rels {
		e.Str(r.Parent)
		e.Str(r.SetAttr)
		e.Str(r.Child)
		e.Str(r.RefAttr)
	}
}

func decodeExtents(b []byte, st *engine.SnapshotState) error {
	d := codec.NewDec(b)
	n := d.Count(26, "extent")
	for i := 0; i < n; i++ {
		ex := engine.ExtentState{
			Name:              d.Str(),
			Class:             d.Str(),
			File:              d.Str(),
			IndexedAtCreation: d.Bool(),
			Count:             int(d.I64()),
		}
		ni := d.Count(5, "index")
		for j := 0; j < ni; j++ {
			ex.Indexes = append(ex.Indexes, engine.IndexState{
				Attr:      d.Str(),
				Clustered: d.Bool(),
			})
		}
		st.Extents = append(st.Extents, ex)
	}
	if nr := d.U32(); nr != 0 {
		return fmt.Errorf("%w: extents section: %d named roots, this build reads none", ErrFormat, nr)
	}
	nl := d.Count(16, "relationship")
	for i := 0; i < nl; i++ {
		st.Rels = append(st.Rels, engine.RelationshipState{
			Parent:  d.Str(),
			SetAttr: d.Str(),
			Child:   d.Str(),
			RefAttr: d.Str(),
		})
	}
	return finish(d, "extents")
}

// --- trees ---

func encodeTrees(e *codec.Enc, st *engine.SnapshotState) {
	var trees []index.TreeState
	for _, ex := range st.Extents {
		for _, ix := range ex.Indexes {
			trees = append(trees, ix.Tree)
		}
	}
	e.U32(uint32(len(trees)))
	for _, t := range trees {
		encodeTree(e, t)
	}
}

func decodeTrees(b []byte, st *engine.SnapshotState) error {
	d := codec.NewDec(b)
	n := d.Count(36, "tree")
	trees := make([]index.TreeState, n)
	for i := range trees {
		trees[i] = decodeTree(d)
	}
	if err := finish(d, "trees"); err != nil {
		return err
	}
	return placeIndexes(st, len(trees), "trees", func(ix *engine.IndexState, i int) {
		ix.Tree = trees[i]
	})
}

// encodeTree writes one B+-tree descriptor, the body of a trees entry and
// the head of a backends entry.
func encodeTree(e *codec.Enc, t index.TreeState) {
	e.U32(t.ID)
	e.Str(t.Name)
	e.U32(uint32(t.Root))
	e.I64(int64(t.Height))
	e.I64(int64(t.Pages))
	e.I64(int64(t.Len))
}

func decodeTree(d *codec.Dec) index.TreeState {
	return index.TreeState{
		ID:     d.U32(),
		Name:   d.Str(),
		Root:   storage.PageID(d.U32()),
		Height: int(d.I64()),
		Pages:  int(d.I64()),
		Len:    int(d.I64()),
	}
}

// --- histograms ---

func encodeHistograms(e *codec.Enc, st *engine.SnapshotState) {
	var stats [][]histogram.BucketState
	for _, ex := range st.Extents {
		for _, ix := range ex.Indexes {
			stats = append(stats, ix.Stats)
		}
	}
	e.U32(uint32(len(stats)))
	for _, s := range stats {
		e.U32(uint32(len(s)))
		for _, b := range s {
			e.I64(b.Lo)
			e.I64(b.Hi)
			e.I64(b.Count)
		}
	}
}

func decodeHistograms(b []byte, st *engine.SnapshotState) error {
	d := codec.NewDec(b)
	n := d.Count(4, "histogram")
	stats := make([][]histogram.BucketState, n)
	for i := range stats {
		nb := d.Count(24, "bucket")
		if nb == 0 {
			continue
		}
		stats[i] = make([]histogram.BucketState, nb)
		for j := range stats[i] {
			stats[i][j] = histogram.BucketState{Lo: d.I64(), Hi: d.I64(), Count: d.I64()}
		}
	}
	if err := finish(d, "histograms"); err != nil {
		return err
	}
	return placeIndexes(st, len(stats), "histograms", func(ix *engine.IndexState, i int) {
		ix.Stats = stats[i]
	})
}

// placeIndexes walks the extents' indexes in extent-major order and calls
// fill with each one's flat position, after checking the aligned section
// has exactly one entry per index.
func placeIndexes(st *engine.SnapshotState, have int, section string, fill func(*engine.IndexState, int)) error {
	total := 0
	for _, ex := range st.Extents {
		total += len(ex.Indexes)
	}
	if have != total {
		return fmt.Errorf("%w: %s section has %d entries for %d indexes",
			ErrFormat, section, have, total)
	}
	i := 0
	for e := range st.Extents {
		for j := range st.Extents[e].Indexes {
			fill(&st.Extents[e].Indexes[j], i)
			i++
		}
	}
	return nil
}

// --- backends ---

// encodeBackends writes the pluggable-backend descriptor of every index,
// aligned with the trees section (extent-major order). A leading kind tag
// (the first index's kind — engines keep it uniform) lets Inspect report
// the backend column without decoding the whole section.
func encodeBackends(e *codec.Enc, st *engine.SnapshotState) {
	var bks []index.BackendState
	for _, ex := range st.Extents {
		for _, ix := range ex.Indexes {
			bks = append(bks, ix.Backend)
		}
	}
	kind := ""
	if len(bks) > 0 {
		kind = bks[0].Kind
	}
	e.Str(kind)
	e.U32(uint32(len(bks)))
	for _, b := range bks {
		e.Str(b.Kind)
		encodeTree(e, b.Tree)
		e.U32(uint32(b.Meta))
		e.Bool(b.LSM != nil)
		if l := b.LSM; l != nil {
			e.U32(l.ID)
			e.Str(l.Name)
			e.I64(int64(l.Len))
			e.U32(l.Seq)
			e.U32(uint32(len(l.Mem)))
			for _, m := range l.Mem {
				e.I64(m.Key)
				e.Rid(m.Rid)
				e.Bool(m.Tomb)
			}
			e.U32(uint32(len(l.Tabs)))
			for _, t := range l.Tabs {
				e.U32(t.Seq)
				e.I64(int64(t.Tier))
				e.U32(uint32(t.Start))
				e.I64(int64(t.Pages))
				e.I64(int64(t.Count))
				e.I64(t.MinKey)
				e.I64(t.MaxKey)
				e.U32(uint32(len(t.Fences)))
				for _, f := range t.Fences {
					e.I64(f)
				}
				e.U32(uint32(len(t.Bloom)))
				for _, w := range t.Bloom {
					e.U64(w)
				}
			}
		}
	}
}

// decodeBackendEntry reads one BackendState (the per-index body of the
// backends section). Shared by decodeBackends and the WAL commit codec.
func decodeBackendEntry(d *codec.Dec) index.BackendState {
	b := index.BackendState{Kind: d.Str(), Tree: decodeTree(d), Meta: storage.PageID(d.U32())}
	if d.Bool() {
		l := &index.LSMState{
			ID:   d.U32(),
			Name: d.Str(),
			Len:  int(d.I64()),
			Seq:  d.U32(),
		}
		nm := d.Count(15, "memtable entry")
		for i := 0; i < nm; i++ {
			l.Mem = append(l.Mem, index.MemEntryState{
				Key:  d.I64(),
				Rid:  d.Rid(),
				Tomb: d.Bool(),
			})
		}
		nt := d.Count(56, "sstable")
		for i := 0; i < nt; i++ {
			t := index.SSTableState{
				Seq:    d.U32(),
				Tier:   int(d.I64()),
				Start:  storage.PageID(d.U32()),
				Pages:  int(d.I64()),
				Count:  int(d.I64()),
				MinKey: d.I64(),
				MaxKey: d.I64(),
			}
			nf := d.Count(8, "fence")
			for j := 0; j < nf; j++ {
				t.Fences = append(t.Fences, d.I64())
			}
			nw := d.Count(8, "bloom word")
			for j := 0; j < nw; j++ {
				t.Bloom = append(t.Bloom, d.U64())
			}
			l.Tabs = append(l.Tabs, t)
		}
		b.LSM = l
	}
	return b
}

func decodeBackends(b []byte, st *engine.SnapshotState) error {
	d := codec.NewDec(b)
	d.Str() // leading uniform kind tag, for cheap inspection only
	n := d.Count(49, "backend")
	bks := make([]index.BackendState, n)
	for i := range bks {
		bks[i] = decodeBackendEntry(d)
	}
	if err := finish(d, "backends"); err != nil {
		return err
	}
	return placeIndexes(st, len(bks), "backends", func(ix *engine.IndexState, i int) {
		ix.Backend = bks[i]
	})
}

// backendKindOf reads the backends section's leading kind tag without
// decoding the entries — the cheap path Inspect's backend column uses.
// An empty tag (a snapshot with no indexes) reports the default kind.
func backendKindOf(b []byte) (string, error) {
	d := codec.NewDec(b)
	kind := d.Str()
	if err := d.Err(); err != nil {
		return "", fmt.Errorf("%w: backends section: %v", ErrFormat, err)
	}
	if kind == "" {
		kind = backend.DefaultKind
	}
	return kind, nil
}

// --- derby ---

func encodeDerby(e *codec.Enc, st *derby.SnapshotState) {
	e.I64(int64(st.NumProviders))
	e.I64(int64(st.NumPatients))
	e.U8(byte(st.Clustering))
	e.U32(uint32(len(st.ProviderRids)))
	for _, r := range st.ProviderRids {
		e.Rid(r)
	}
	e.U32(uint32(len(st.PatientRids)))
	for _, r := range st.PatientRids {
		e.Rid(r)
	}
	e.I64(int64(st.Load.Elapsed))
	e.I64(int64(st.Load.Commits))
	e.I64(int64(st.Load.Relocations))
	for _, c := range st.Load.Counters.Fields() {
		e.I64(*c)
	}
}

func decodeDerby(b []byte) (*derby.SnapshotState, error) {
	d := codec.NewDec(b)
	st := &derby.SnapshotState{
		NumProviders: int(d.I64()),
		NumPatients:  int(d.I64()),
		Clustering:   derby.Clustering(d.U8()),
	}
	np := d.Count(6, "provider rid")
	st.ProviderRids = make([]storage.Rid, np)
	for i := range st.ProviderRids {
		st.ProviderRids[i] = d.Rid()
	}
	nt := d.Count(6, "patient rid")
	st.PatientRids = make([]storage.Rid, nt)
	for i := range st.PatientRids {
		st.PatientRids[i] = d.Rid()
	}
	st.Load.Elapsed = time.Duration(d.I64())
	st.Load.Commits = int(d.I64())
	st.Load.Relocations = int(d.I64())
	for _, c := range st.Load.Counters.Fields() {
		*c = d.I64()
	}
	if err := finish(d, "derby"); err != nil {
		return nil, err
	}
	return st, nil
}

// --- lineage ---

// Lineage is a snapshot's position in its MVCC chain, as recorded in the
// lineage section: all zero for a freshly generated root, stamped by the
// chain store for every committed or compacted version.
type Lineage struct {
	Version    uint64
	Parent     uint64
	DeltaPages int   // pages the version's commit shipped (0 for root/compacted)
	WalOff     int64 // offset of the commit record in the WAL
}

func encodeLineage(e *codec.Enc, sn *engine.Snapshot) {
	e.U64(sn.Version())
	e.U64(sn.ParentVersion())
	e.U32(uint32(sn.DeltaPages()))
	e.I64(sn.WalOff())
}

func decodeLineage(b []byte) (Lineage, error) {
	d := codec.NewDec(b)
	ln := Lineage{
		Version:    d.U64(),
		Parent:     d.U64(),
		DeltaPages: int(d.U32()),
		WalOff:     d.I64(),
	}
	if err := finish(d, "lineage"); err != nil {
		return Lineage{}, err
	}
	return ln, nil
}
