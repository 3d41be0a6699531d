package persist

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"treebench/internal/codec"
	"treebench/internal/derby"
	"treebench/internal/storage"
	"treebench/internal/wal"
)

// syncDir makes a rename into dir durable (wal.SyncDir). It is a variable
// so a test can record when Save syncs, the way wal.File lets one fail a
// log's writes.
var syncDir = wal.SyncDir

// Save writes the snapshot to path atomically: the file is assembled in a
// temporary sibling, fsynced, renamed into place, and the directory is
// fsynced, so a crash mid-save leaves either the old file or the new one
// — never a torn one — and once Save returns the new one survives a
// crash: a caller may discard what the file replaces. Saving the same
// snapshot twice produces byte-identical files (no timestamps, canonical
// catalog order); the Cache's content addressing depends on it.
func Save(path string, snap *derby.Snapshot) (err error) {
	st := snap.State()
	base := snap.Engine.Base()

	// Encode every catalog section up front; only the page image is
	// streamed. The catalog is O(classes + files + indexes) — a few KB
	// even at the 1:3 million-patient scale.
	var meta, catalog, registry, extents, trees, histograms, dby, lineage, backends codec.Enc
	encodeMeta(&meta, st.Engine)
	encodeCatalog(&catalog, st.Engine.Files)
	encodeRegistry(&registry, st.Engine.Classes)
	encodeExtents(&extents, st.Engine)
	encodeTrees(&trees, st.Engine)
	encodeHistograms(&histograms, st.Engine)
	encodeDerby(&dby, st)
	encodeLineage(&lineage, snap.Engine)
	encodeBackends(&backends, st.Engine)

	numPages := base.NumPages()
	capPages := base.CapacityBytes() / storage.PageSize
	pagesLen := uint64(8 + numPages*storage.PageSize)
	var ph codec.Enc // the pages section's own header
	ph.U32(uint32(numPages))
	ph.U32(uint32(capPages))

	sections := []struct {
		id   uint32
		body []byte // nil for the streamed pages section
		len  uint64
	}{
		{SectionMeta, meta.B, uint64(len(meta.B))},
		{SectionPages, nil, pagesLen},
		{SectionCatalog, catalog.B, uint64(len(catalog.B))},
		{SectionRegistry, registry.B, uint64(len(registry.B))},
		{SectionExtents, extents.B, uint64(len(extents.B))},
		{SectionTrees, trees.B, uint64(len(trees.B))},
		{SectionHistograms, histograms.B, uint64(len(histograms.B))},
		{SectionDerby, dby.B, uint64(len(dby.B))},
		{SectionLineage, lineage.B, uint64(len(lineage.B))},
		{SectionBackends, backends.B, uint64(len(backends.B))},
	}

	// All lengths are known, so the whole table is computable before a
	// byte of payload is written. Every CRC but the pages section's is
	// too; that one is hashed while the pages are written, in the one
	// pass that reads them, and patched into its table entry before the
	// file is synced.
	var hdr codec.Enc
	hdr.U32(Magic)
	hdr.U32(FormatVersion)
	hdr.U32(uint32(len(sections)))
	hdr.U32(0) // reserved
	offset := uint64(headerLen + len(sections)*tableEntryLen)
	table := make([]sectionEntry, len(sections))
	pagesEntry := 0
	for i, s := range sections {
		table[i] = sectionEntry{id: s.id, offset: offset, length: s.len}
		offset += s.len
		if s.body != nil {
			table[i].crc = crc32.Checksum(s.body, crcTable)
		} else {
			pagesEntry = i
		}
	}
	for _, t := range table {
		hdr.U32(t.id)
		hdr.U64(t.offset)
		hdr.U64(t.length)
		hdr.U32(t.crc)
	}

	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tbsp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriterSize(tmp, 1<<20)
	if _, err = w.Write(hdr.B); err != nil {
		return err
	}
	// Pages section: CRC over the streamed payload (header + raw pages),
	// hashed as it is written.
	pagesCRC := crc32.New(crcTable)
	for _, s := range sections {
		if s.body != nil {
			if _, err = w.Write(s.body); err != nil {
				return err
			}
			continue
		}
		pw := io.MultiWriter(w, pagesCRC)
		if _, err = pw.Write(ph.B); err != nil {
			return err
		}
		for p := 0; p < numPages; p++ {
			pg, perr := base.Page(storage.PageID(p))
			if perr != nil {
				return fmt.Errorf("persist: reading page %d: %w", p, perr)
			}
			if _, err = pw.Write(pg); err != nil {
				return err
			}
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	var crc codec.Enc // the last field of the pages section's table entry
	crc.U32(pagesCRC.Sum32())
	crcAt := int64(headerLen + (pagesEntry+1)*tableEntryLen - len(crc.B))
	if _, err = tmp.WriteAt(crc.B, crcAt); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}
