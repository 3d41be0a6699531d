// Package persist serializes frozen derby snapshots to a versioned
// on-disk format and loads them back bit-identically. A snapshot file is
// one self-describing blob:
//
//	header        magic u32 ("TBSP") | version u32 | sectionCount u32 | reserved u32
//	section table sectionCount × (id u32 | offset u64 | length u64 | crc u32)
//	payloads      section bodies at their table offsets, in table order
//
// Every integer is big-endian (the wire protocol's convention). Each
// section carries its own CRC-32C; Load and Verify check all of them
// before trusting a byte, and a mismatch fails with a typed error naming
// the section — corruption is a diagnosis, never a panic. The page image
// is the bulk of a file, so Load verifies it streaming and then serves
// pages lazily through a page-granular reader beneath the copy-on-write
// overlay: a warm boot pays for the catalog, not the dataset.
//
// Saves are deterministic — no timestamps, canonical catalog order — so
// saving the same snapshot twice produces byte-identical files, which is
// what makes the content-addressed Cache sound.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a treebench snapshot file ("TBSP").
const Magic uint32 = 0x54425350

// FormatVersion is the current on-disk format version. Bump it on ANY
// change to the header, section table, or a section's encoding; old
// readers reject newer files with ErrVersion rather than misparse them,
// and the cache keys on it so stale files are regenerated, not misread.
// v2 added the lineage section (MVCC chain provenance); v3 added the
// backends section (pluggable index backend descriptors); v4 changed the
// derby section's sort counter from elements sorted to sort steps.
const FormatVersion uint32 = 4

// Section identifiers. The table may list them in any order; each id may
// appear at most once, and all of them are required.
const (
	// SectionMeta: simulated machine, cost model, transaction mode, and
	// the engine's index-id cursor.
	SectionMeta uint32 = 1
	// SectionPages: the frozen page image — u32 pageCount, u32
	// capacityPages, then pageCount raw 4 KB pages.
	SectionPages uint32 = 2
	// SectionCatalog: the heap-file catalog (names, page lists, append
	// cursors) in creation order.
	SectionCatalog uint32 = 3
	// SectionRegistry: the class graph with IDs, layouts, inheritance
	// and evolution epochs.
	SectionRegistry uint32 = 4
	// SectionExtents: extents with their per-index attribute metadata,
	// an always-empty named-roots list, and declared relationships.
	SectionExtents uint32 = 5
	// SectionTrees: B+-tree descriptors, one per index, in extent order.
	SectionTrees uint32 = 6
	// SectionHistograms: primed equi-depth histograms, aligned with
	// SectionTrees (empty markers when the snapshot was saved unprimed).
	SectionHistograms uint32 = 7
	// SectionDerby: derby generation bookkeeping — scale, clustering,
	// rid maps, and the load report.
	SectionDerby uint32 = 8
	// SectionLineage: the snapshot's position in its MVCC chain — version,
	// parent version, delta page count and WAL offset of the commit that
	// produced it (all zero for a freshly generated root).
	SectionLineage uint32 = 9
	// SectionBackends: the pluggable-backend descriptor of every index,
	// aligned with SectionTrees — kind tag plus the kind-specific state
	// (metadata page for the on-disk B+-tree; memtable, SSTable fences
	// and bloom filters for the LSM).
	SectionBackends uint32 = 10
)

// sectionName renders a section id for error messages and manifests.
func sectionName(id uint32) string {
	switch id {
	case SectionMeta:
		return "meta"
	case SectionPages:
		return "pages"
	case SectionCatalog:
		return "catalog"
	case SectionRegistry:
		return "registry"
	case SectionExtents:
		return "extents"
	case SectionTrees:
		return "trees"
	case SectionHistograms:
		return "histograms"
	case SectionDerby:
		return "derby"
	case SectionLineage:
		return "lineage"
	case SectionBackends:
		return "backends"
	default:
		return fmt.Sprintf("section-%d", id)
	}
}

// requiredSections lists every section a well-formed file must contain.
var requiredSections = []uint32{
	SectionMeta, SectionPages, SectionCatalog, SectionRegistry,
	SectionExtents, SectionTrees, SectionHistograms, SectionDerby,
	SectionLineage, SectionBackends,
}

// Header and table-entry sizes in bytes.
const (
	headerLen       = 16
	tableEntryLen   = 24
	maxSections     = 64      // sanity bound on sectionCount
	maxCatalogBytes = 1 << 30 // sanity bound on a non-page section's length
)

// crcTable is the Castagnoli polynomial table (CRC-32C, the checksum used
// by iSCSI and ext4 — hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFormat reports a file that is not a treebench snapshot (bad magic,
// malformed header or section table, or undecodable section payload).
var ErrFormat = errors.New("persist: malformed snapshot file")

// ErrVersion reports a snapshot written by an incompatible format version.
var ErrVersion = errors.New("persist: unsupported snapshot format version")

// ErrChecksum reports a section whose stored CRC-32C does not match its
// bytes. Match it with errors.Is; the concrete *ChecksumError names the
// section.
var ErrChecksum = errors.New("persist: checksum mismatch")

// ChecksumError is the concrete error for a corrupt section.
type ChecksumError struct {
	Section string // section name, e.g. "registry"
	Want    uint32 // CRC recorded in the section table
	Got     uint32 // CRC of the bytes actually read
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("persist: %s section checksum mismatch (file %08x, computed %08x)",
		e.Section, e.Want, e.Got)
}

func (e *ChecksumError) Unwrap() error { return ErrChecksum }

// sectionEntry is one row of the section table.
type sectionEntry struct {
	id     uint32
	offset uint64
	length uint64
	crc    uint32
}
