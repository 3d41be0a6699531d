package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"treebench/internal/bufpool"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/storage"
)

// Load opens a snapshot file, verifies every section checksum, and
// rebuilds the derby snapshot over a page image that reads through the
// process-wide buffer pool. The catalog is decoded eagerly (it is small);
// data pages stay on disk until a session first touches them, which is
// what makes a warm boot O(catalog) instead of O(dataset). The pages
// section's CRC is verified streaming — nothing is retained — so even the
// integrity pass costs no memory.
//
// A failure is always a typed error: ErrFormat, ErrVersion, or a
// *ChecksumError naming the corrupt section. Load never panics on a
// malformed file.
func Load(path string) (*derby.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	snap, err := load(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return snap, nil
}

func load(f *os.File) (*derby.Snapshot, error) {
	table, _, err := readTable(f)
	if err != nil {
		return nil, err
	}
	byID := make(map[uint32]sectionEntry, len(table))
	for _, e := range table {
		byID[e.id] = e
	}

	// Integrity first: verify every checksum before decoding a byte, the
	// pages section streaming. Catalog sections are retained for decode.
	bodies := make(map[uint32][]byte, len(table))
	var pagesEntry sectionEntry
	for _, e := range table {
		if e.id == SectionPages {
			pagesEntry = e
			if err := crcStream(f, e); err != nil {
				return nil, err
			}
			continue
		}
		body, err := readSection(f, e)
		if err != nil {
			return nil, err
		}
		bodies[e.id] = body
	}

	// Pages section header: page count and capacity.
	if pagesEntry.length < 8 {
		return nil, fmt.Errorf("%w: pages section too short (%d bytes)", ErrFormat, pagesEntry.length)
	}
	var ph [8]byte
	if _, err := f.ReadAt(ph[:], int64(pagesEntry.offset)); err != nil {
		return nil, err
	}
	numPages := int(binary.BigEndian.Uint32(ph[0:4]))
	capPages := int(binary.BigEndian.Uint32(ph[4:8]))
	if uint64(numPages)*storage.PageSize+8 != pagesEntry.length {
		return nil, fmt.Errorf("%w: pages section is %d bytes for %d pages",
			ErrFormat, pagesEntry.length, numPages)
	}
	if capPages != 0 && capPages < numPages {
		return nil, fmt.Errorf("%w: capacity %d pages below image size %d",
			ErrFormat, capPages, numPages)
	}

	// Decode the catalog sections into one state tree.
	est := &engine.SnapshotState{}
	if err := decodeMeta(bodies[SectionMeta], est); err != nil {
		return nil, err
	}
	if est.Files, err = decodeCatalog(bodies[SectionCatalog]); err != nil {
		return nil, err
	}
	if est.Classes, err = decodeRegistry(bodies[SectionRegistry]); err != nil {
		return nil, err
	}
	if err := decodeExtents(bodies[SectionExtents], est); err != nil {
		return nil, err
	}
	if err := decodeTrees(bodies[SectionTrees], est); err != nil {
		return nil, err
	}
	if err := decodeHistograms(bodies[SectionHistograms], est); err != nil {
		return nil, err
	}
	if err := decodeBackends(bodies[SectionBackends], est); err != nil {
		return nil, err
	}
	dst, err := decodeDerby(bodies[SectionDerby])
	if err != nil {
		return nil, err
	}
	dst.Engine = est
	ln, err := decodeLineage(bodies[SectionLineage])
	if err != nil {
		return nil, err
	}

	// Page image: every read goes through the process-wide buffer pool
	// (bounded residency, shared frames, readahead).
	src := &fileSource{
		f:        f,
		firstOff: int64(pagesEntry.offset) + 8,
		numPages: numPages,
	}
	h := bufpool.Active().Register(src, numPages)
	base := storage.NewCachedBase(numPages, int64(capPages)*storage.PageSize, h)
	snap, err := derby.RestoreSnapshot(base, dst)
	if err != nil {
		return nil, err
	}
	snap.Engine.SetLineage(ln.Version, ln.DeltaPages, ln.WalOff)
	return snap, nil
}

// SectionInfo describes one section for manifests and the snap tool.
type SectionInfo struct {
	Name   string
	Length uint64
	CRC    uint32
}

// Manifest summarizes a snapshot file without loading it.
type Manifest struct {
	Path     string
	Version  uint32
	Pages    int
	Sections []SectionInfo

	// Derby provenance (decoded from the derby section).
	Providers  int
	Patients   int
	Clustering string

	// Backend is the index-backend kind ("btree" or "lsm"), from the
	// backends section's leading tag.
	Backend string

	// Chain provenance (decoded from the lineage section): which MVCC
	// version this file is, what it was committed over, and where in the
	// WAL its commit record lives. All zero for a freshly generated root.
	Chain Lineage
}

// Inspect reads a snapshot file's header, table, and the small provenance
// sections (derby, lineage, backends). Only those sections' checksums are
// verified — Inspect is the cheap query behind `treebench-snap ls`;
// Verify is the thorough one.
func Inspect(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return inspect(f, path, false)
}

// Verify checks every section checksum (the page image streaming) and
// returns the manifest. It is the integrity half of Load without the
// rebuild — what `treebench-snap verify` and the smoke script run.
func Verify(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return inspect(f, path, true)
}

func inspect(f *os.File, path string, verifyAll bool) (*Manifest, error) {
	table, version, err := readTable(f)
	if err != nil {
		return nil, err
	}
	m := &Manifest{Path: path, Version: version}
	for _, e := range table {
		m.Sections = append(m.Sections, SectionInfo{
			Name:   sectionName(e.id),
			Length: e.length,
			CRC:    e.crc,
		})
		switch e.id {
		case SectionPages:
			if verifyAll {
				if err := crcStream(f, e); err != nil {
					return nil, err
				}
			}
			if e.length >= 8 {
				var ph [8]byte
				if _, err := f.ReadAt(ph[:], int64(e.offset)); err != nil {
					return nil, err
				}
				m.Pages = int(binary.BigEndian.Uint32(ph[0:4]))
			}
		case SectionDerby:
			body, err := readSection(f, e)
			if err != nil {
				return nil, err
			}
			dst, err := decodeDerby(body)
			if err != nil {
				return nil, err
			}
			m.Providers = dst.NumProviders
			m.Patients = dst.NumPatients
			m.Clustering = dst.Clustering.String()
		case SectionLineage:
			body, err := readSection(f, e)
			if err != nil {
				return nil, err
			}
			if m.Chain, err = decodeLineage(body); err != nil {
				return nil, err
			}
		case SectionBackends:
			body, err := readSection(f, e)
			if err != nil {
				return nil, err
			}
			if m.Backend, err = backendKindOf(body); err != nil {
				return nil, err
			}
		default:
			if verifyAll {
				if _, err := readSection(f, e); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// readTable parses and validates the header and section table: magic,
// version, section count, per-entry bounds against the file size, no
// duplicate ids, and every required section present.
func readTable(f *os.File) ([]sectionEntry, uint32, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != Magic {
		return nil, 0, fmt.Errorf("%w: bad magic %08x", ErrFormat, got)
	}
	version := binary.BigEndian.Uint32(hdr[4:8])
	if version != FormatVersion {
		return nil, 0, fmt.Errorf("%w: file is v%d, this build reads v%d",
			ErrVersion, version, FormatVersion)
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n == 0 || n > maxSections {
		return nil, 0, fmt.Errorf("%w: %d sections", ErrFormat, n)
	}
	raw := make([]byte, int(n)*tableEntryLen)
	if _, err := f.ReadAt(raw, headerLen); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated section table", ErrFormat)
	}
	payloadStart := uint64(headerLen + len(raw))
	table := make([]sectionEntry, n)
	seen := make(map[uint32]bool, n)
	for i := range table {
		b := raw[i*tableEntryLen:]
		e := sectionEntry{
			id:     binary.BigEndian.Uint32(b[0:4]),
			offset: binary.BigEndian.Uint64(b[4:12]),
			length: binary.BigEndian.Uint64(b[12:20]),
			crc:    binary.BigEndian.Uint32(b[20:24]),
		}
		if seen[e.id] {
			return nil, 0, fmt.Errorf("%w: duplicate %s section", ErrFormat, sectionName(e.id))
		}
		seen[e.id] = true
		if e.offset < payloadStart || e.offset+e.length < e.offset || e.offset+e.length > uint64(size) {
			return nil, 0, fmt.Errorf("%w: %s section [%d,+%d) outside file (%d bytes)",
				ErrFormat, sectionName(e.id), e.offset, e.length, size)
		}
		if e.id != SectionPages && e.length > maxCatalogBytes {
			return nil, 0, fmt.Errorf("%w: %s section implausibly large (%d bytes)",
				ErrFormat, sectionName(e.id), e.length)
		}
		table[i] = e
	}
	for _, id := range requiredSections {
		if !seen[id] {
			return nil, 0, fmt.Errorf("%w: missing %s section", ErrFormat, sectionName(id))
		}
	}
	return table, version, nil
}

// readSection reads a section fully and checks its CRC.
func readSection(f *os.File, e sectionEntry) ([]byte, error) {
	body := make([]byte, e.length)
	if _, err := f.ReadAt(body, int64(e.offset)); err != nil {
		return nil, fmt.Errorf("%w: reading %s section: %v", ErrFormat, sectionName(e.id), err)
	}
	if got := crc32.Checksum(body, crcTable); got != e.crc {
		return nil, &ChecksumError{Section: sectionName(e.id), Want: e.crc, Got: got}
	}
	return body, nil
}

// crcStream checks a section's CRC in fixed-size chunks without retaining
// the payload — the pages section can be gigabytes.
func crcStream(f *os.File, e sectionEntry) error {
	h := crc32.New(crcTable)
	if _, err := io.Copy(h, io.NewSectionReader(f, int64(e.offset), int64(e.length))); err != nil {
		return fmt.Errorf("%w: reading %s section: %v", ErrFormat, sectionName(e.id), err)
	}
	if got := h.Sum32(); got != e.crc {
		return &ChecksumError{Section: sectionName(e.id), Want: e.crc, Got: got}
	}
	return nil
}
