package index

import (
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Backend is the pluggable index contract: everything the engine, the
// selection access paths, the joins and the planner need from an index
// structure, with every page touched through the storage.Pager passed per
// call. One Backend instance is shared read-only across a session's chunk
// forks (engine.ReadFork shares the catalog), so read methods must be safe
// for concurrent use when each caller brings its own pager; mutations
// (Insert, Delete) happen only on a session's primary pager, never
// concurrently with reads of the same fork.
//
// Cost accounting is page-granular and flows through the pager: page reads
// and writes are charged by the cache hierarchy the pager wraps, and
// CPU-level events (key comparisons, bloom probes) are charged to the
// pager's meter via the CostSource hook. A Backend never holds a meter of
// its own — the same instance serves many forks with private meters.
//
// ScanBatched is a backend's one traversal: it delivers entries in
// ascending (key, rid) order for the half-open key range lo ≤ key < hi,
// whatever the physical layout — that shared order is what makes query
// tables byte-identical across backends — and must deliver each batch
// before any page read that the batch's consumer could observe out of
// order: the leaf-boundary flush rule of the B+-tree, generalized (see
// DESIGN.md). Scan is the package function Scan over it, one entry at a
// time, so its charges are ScanBatched's by construction.
type Backend interface {
	// Kind names the registered implementation ("btree", "lsm").
	Kind() string
	// ID is the engine-assigned index id (what object headers reference).
	ID() uint32
	// Name is the "Extent.attr" display name.
	Name() string
	// Len is the number of live entries.
	Len() int
	// Pages is the number of pages the structure occupies.
	Pages() int

	Scan(p storage.Pager, lo, hi int64, fn func(Entry) (bool, error)) error
	// ScanBatched delivers batches of at most cap(scratch) entries
	// through the caller's scratch slice.
	ScanBatched(p storage.Pager, lo, hi int64, scratch []Entry, fn func([]Entry) (bool, error)) error
	Lookup(p storage.Pager, key int64) ([]storage.Rid, error)
	Insert(p storage.Pager, e Entry) error
	Delete(p storage.Pager, e Entry) (bool, error)
	MinKey(p storage.Pager) (int64, bool, error)
	MaxKey(p storage.Pager) (int64, bool, error)
	Validate(p storage.Pager) error

	// Clone returns an independent descriptor for a forked session. Pages
	// live on the fork's disk and are shared (or copied on write) there;
	// Clone copies only bookkeeping, so read forks stay zero-copy. Any
	// mutable in-memory component (an LSM memtable) must go copy-on-write.
	Clone() Backend

	// Counters snapshots the per-backend counters. They accumulate across
	// every fork sharing this instance (reads from chunk forks included),
	// so implementations keep them atomically.
	Counters() BackendCounters

	// State returns the serializable descriptor for persistence.
	State() BackendState
}

// Scan visits the entries of b with lo ≤ key < hi in key order, one at a
// time: it is b's ScanBatched with a one-entry batch, so a per-entry
// consumer reads the same pages and is charged the same events, in the
// same order, as a batched one. fn returning false stops the scan. It is
// every backend's Backend.Scan; the hot paths call ScanBatched with a
// buffer they own instead, since the one-entry batch is allocated per
// call.
func Scan(b Backend, p storage.Pager, lo, hi int64, fn func(Entry) (bool, error)) error {
	return b.ScanBatched(p, lo, hi, make([]Entry, 0, 1), func(batch []Entry) (bool, error) {
		return fn(batch[0])
	})
}

// CostSource is implemented by pagers that expose their session meter
// (cache.Client does). Backends assert it per call to charge CPU-level
// events — comparisons, bloom probes — to whichever fork is driving them;
// a bare storage.Disk satisfies Pager without it, and then only page I/O
// is accounted.
type CostSource interface {
	Costs() *sim.Meter
}

// MeterOf returns p's meter when p can charge CPU events, else nil. The
// nil-check idiom at call sites keeps backends usable over a raw Disk.
func MeterOf(p storage.Pager) *sim.Meter {
	if cs, ok := p.(CostSource); ok {
		return cs.Costs()
	}
	return nil
}

// BackendCounters is a snapshot of the per-backend event counters the
// wire Stats and the ablation experiment surface. The B+-tree counts only
// PagesWritten; the other four are the LSM's.
type BackendCounters struct {
	// BloomHits counts bloom probes that passed (the SSTable had to be
	// searched); BloomMisses counts probes that proved absence — each miss
	// is an SSTable read skipped, charged as a probe, not a read.
	BloomHits   int64
	BloomMisses int64
	// SSTablesRead counts SSTables actually searched by point lookups.
	SSTablesRead int64
	// Compactions counts size-tiered merges; their I/O bills to the
	// pager (and so the wave) that triggered them.
	Compactions int64
	// PagesWritten counts page writes issued by the structure itself
	// (node writes, flushes, compaction output).
	PagesWritten int64
}

// Add accumulates o into c (commutative, for canonical-order merges).
func (c *BackendCounters) Add(o BackendCounters) {
	c.BloomHits += o.BloomHits
	c.BloomMisses += o.BloomMisses
	c.SSTablesRead += o.SSTablesRead
	c.Compactions += o.Compactions
	c.PagesWritten += o.PagesWritten
}

// BackendState is the serializable descriptor of any backend: the kind
// tag plus the union of per-kind state. It lives in this package (not
// internal/backend) so the Backend interface can name it without an
// import cycle; the backend package's Restore rebuilds the right
// implementation from it.
type BackendState struct {
	Kind string
	// Tree carries the "btree" kind's node bookkeeping.
	Tree TreeState
	// LSM carries the "lsm" kind's state; nil for the B+-tree.
	LSM *LSMState
}

// LSMState is the serializable half of an LSM backend: identity, the
// unflushed memtable, and every live SSTable's descriptor. SSTable pages
// themselves persist with the snapshot's page image.
type LSMState struct {
	ID   uint32
	Name string
	Len  int // live entries net of tombstones
	Seq  uint32
	Mem  []MemEntryState
	Tabs []SSTableState
}

// MemEntryState is one memtable entry: a (key, rid) pair plus its
// tombstone flag.
type MemEntryState struct {
	Key  int64
	Rid  storage.Rid
	Tomb bool
}

// SSTableState describes one immutable sorted run: its pages (contiguous
// from Start — flushes and compactions allocate with nothing interleaved),
// the key range, the per-page fence keys for binary search, and the bloom
// filter bits. Fences and bloom are persisted rather than rebuilt so a
// loaded snapshot charges no I/O before its first query.
type SSTableState struct {
	Seq    uint32
	Tier   int
	Start  storage.PageID
	Pages  int
	Count  int
	MinKey int64
	MaxKey int64
	Fences []int64
	Bloom  []uint64
}
