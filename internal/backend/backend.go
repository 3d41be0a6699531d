// Package backend registers the two pluggable index implementations
// behind the index.Backend interface: the B+-tree (index.Tree, whose nodes
// are pages of the session's disk and so of the snapshot image; the meter
// oracle the LSM must match table-for-table), and an LSM-tree with a
// memtable, bloom-filtered SSTables and deterministic size-tiered
// compaction.
//
// Both deliver entries in the same ascending (key, rid) order, so query
// tables are byte-identical across backends; what differs — and what the
// B1 ablation measures — is the page-granular cost each charges through
// the pager it is handed.
package backend

import (
	"fmt"
	"strings"

	"treebench/internal/index"
	"treebench/internal/storage"
)

// The registered backend kinds. KindBTree is the default and the
// pre-refactor oracle: its adapter delegates to index.Tree without
// adding a single charge.
const (
	KindBTree = "btree"
	KindLSM   = "lsm"

	DefaultKind = KindBTree
)

// Kinds returns the registered backend names in presentation order.
func Kinds() []string { return []string{KindBTree, KindLSM} }

// Normalize maps the zero value to the default kind; every entry point
// (engine, persist cache key, CLI flags) funnels through it so "" and
// "btree" name the same dataset.
func Normalize(kind string) string {
	if kind == "" {
		return DefaultKind
	}
	return kind
}

// Valid reports whether kind names a registered backend ("" counts as
// the default).
func Valid(kind string) bool {
	switch Normalize(kind) {
	case KindBTree, KindLSM:
		return true
	}
	return false
}

// ErrUnknownKind is wrapped by every unknown-backend failure so CLIs can
// exit with the hint listing valid names.
var ErrUnknownKind = fmt.Errorf("backend: unknown index backend")

func unknownKind(kind string) error {
	return fmt.Errorf("%w %q (valid: %s)", ErrUnknownKind, kind, strings.Join(Kinds(), ", "))
}

// CheckKind validates a user-supplied backend name, returning the
// hint-bearing error CLIs print before exiting.
func CheckKind(kind string) error {
	if !Valid(kind) {
		return unknownKind(kind)
	}
	return nil
}

// Build bulk-loads an index of the given kind from entries (not
// necessarily sorted).
func Build(kind string, p storage.Pager, id uint32, name string, entries []index.Entry) (index.Backend, error) {
	switch Normalize(kind) {
	case KindBTree:
		return buildBTree(p, id, name, entries)
	case KindLSM:
		return buildLSM(p, id, name, entries)
	}
	return nil, unknownKind(kind)
}

// Restore rebuilds a backend from its serialized state over an existing
// page image of numPages pages. The state may come from an untrusted
// snapshot file: structural impossibilities fail with an error, never a
// panic.
func Restore(st index.BackendState, numPages int) (index.Backend, error) {
	switch Normalize(st.Kind) {
	case KindBTree:
		return restoreBTree(st, numPages)
	case KindLSM:
		return restoreLSM(st, numPages)
	}
	return nil, unknownKind(st.Kind)
}
