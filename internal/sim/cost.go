// Package sim provides the deterministic hardware model that stands in for
// the paper's Sparc 20 testbed: counters of every charged event, a cost model
// that prices them, and a memory budget with swap accounting.
//
// Nothing in the engine reads the wall clock. Every operation that the
// paper's analysis charges for (page reads, RPCs, handle management, hash
// probes, sorting, comparisons) bumps a counter through a Meter, and
// reported "elapsed time" is those counters priced under the cost model
// (Vector.Price): a pure function of the work done and the constants
// below. The planner's estimates are the same vector with float elements
// (Expected), priced by the same rate table, so this package is the only
// code that knows which constant prices which event. The constants are
// calibrated so the paper's own arithmetic holds (for example, §4.2's
// "802.15 seconds to scan the Patients collection" and "about 250 seconds
// not spent on reads"), and any stored counter vector can be re-priced
// under another model without a re-run.
package sim

import "time"

// CostModel holds one constant per operation the engine charges simulated
// time for. The defaults (see DefaultCostModel) model the paper's testbed: a
// Sparc 20 with 128 MB of RAM, a SCSI disk assumed to deliver a 4 KB page in
// 10 ms, and the O2 client/server processes on the same machine.
//
// Calibration anchors, all from the paper's own arithmetic:
//
//   - PageRead = 10 ms: §4.2 "assuming 10ms per page read".
//   - ScanNext + HandleGet + HandleUnref ≈ 125 µs per object: §4.2 observes
//     ~250 s of non-I/O time while scanning 2 M patients, which §4.3
//     attributes to per-object Handle management in the scan loop
//     (2 M × 125 µs = 250 s). We split the residue into the scan operator's
//     per-object cursor-and-handle machinery (ScanNext, charged only by the
//     standard scan) and the bare Handle get/unref that every access path
//     pays, because Figure 7 — where the sorted index scan beats the full
//     scan even at 90 % selectivity despite reading extra index pages —
//     requires the full scan's per-object overhead to dwarf the index
//     fetch path's.
//   - ResultAppend ≈ 600 µs: §4.2 measures "the cost of constructing a
//     collection of 1.8 millions integers" at ≈1100 s (1.8 M × 611 µs),
//     in standard transaction mode where the collection could become
//     persistent.
//   - SwapRead = 20 ms and SwapWrite = 2.5 ms: random faults on a swapped
//     hash table pay a synchronous seek+read, while dirty-page evictions are
//     absorbed by the OS write-behind. These two constants, together with
//     the 20 MB hash budget, reproduce the Figure 11–14 orderings including
//     the PHJ/CHJ reversals at (10,90) and (90,90) in Figure 12.
type CostModel struct {
	// PageRead is the cost of reading one 4 KB page from disk into the
	// server cache.
	PageRead time.Duration
	// PageWrite is the cost of writing one dirty page back to disk.
	PageWrite time.Duration
	// RPC is the fixed per-message cost of a client↔server round trip
	// (both processes on one machine, so far below a network RTT).
	RPC time.Duration
	// ScanNext is the per-object overhead of the generic scan operator:
	// advancing the cursor and running the full Handle allocate/fill/free
	// machinery for every object visited, selected or not.
	ScanNext time.Duration
	// HandleGet is the CPU cost of materializing an object's in-memory
	// representative: allocating the 60-byte structure, filling its flags,
	// type and index pointers, and pinning the page.
	HandleGet time.Duration
	// HandleUnref is the CPU cost of releasing a Handle (refcount drop,
	// delayed free bookkeeping).
	HandleUnref time.Duration
	// SlimScanNext, SlimHandleGet and SlimHandleUnref are the costs under
	// the paper's §4.4 proposal: compact Handles for literals and bulk
	// allocation of handle bookkeeping. Used only when a session opts in
	// to slim handles.
	SlimScanNext    time.Duration
	SlimHandleGet   time.Duration
	SlimHandleUnref time.Duration
	// AttrGet is the cost of decoding one attribute out of a pinned object.
	AttrGet time.Duration
	// Compare is the cost of one integer/key comparison.
	Compare time.Duration
	// HashInsert and HashProbe are the CPU costs of one hash-table
	// operation, excluding any swap penalty.
	HashInsert time.Duration
	// HashProbe is the CPU cost of one hash-table lookup.
	HashProbe time.Duration
	// ResultAppend is the cost of appending one element to a query result
	// collection in standard transaction mode: the element is a tuple
	// literal that gets its own record and Handle (§4.4 notes most Handle
	// information "is absolutely irrelevant to literals").
	ResultAppend time.Duration
	// SlimResultAppend is the append cost under the §4.4 proposal, where
	// tuple literals that are part of a collection get no separate
	// records or fat Handles.
	SlimResultAppend time.Duration
	// SortPerCompare is the per-element, per-level cost of an in-memory
	// sort (one comparison plus its share of tuple movement); a sort of n
	// elements charges n·⌈log₂n⌉ of these. It is what prices the §4.2
	// Rid sort and what makes the sort-merge join lose to hashing (§5.1:
	// "sort-based algorithms ... proved to be worse than hash-based
	// ones").
	SortPerCompare time.Duration
	// SwapRead is the synchronous cost of faulting in one 4 KB page of a
	// swapped-out in-memory structure (seek + read).
	SwapRead time.Duration
	// SwapWrite is the amortized cost of dirtying one page of a
	// swapped-out structure; the OS writes back asynchronously, so it is
	// far cheaper than SwapRead.
	SwapWrite time.Duration
	// LogWrite is the cost of appending one page to the transaction log
	// (charged per dirtied page when transactions are on).
	LogWrite time.Duration
	// Lock is the per-operation cost of read/write lock management in
	// standard transaction mode; §3.2's transaction-off loading removes
	// it along with the log.
	Lock time.Duration
}

// Fields lists every CostModel field in declaration order: the one list
// the snapshot file's meta section and persist.KeyFor walk. A field added
// to CostModel goes here too (TestFieldListsCoverStructs fails otherwise),
// together with a persist.FormatVersion bump.
func (m *CostModel) Fields() []*time.Duration {
	return []*time.Duration{
		&m.PageRead, &m.PageWrite, &m.RPC,
		&m.ScanNext, &m.HandleGet, &m.HandleUnref,
		&m.SlimScanNext, &m.SlimHandleGet, &m.SlimHandleUnref,
		&m.AttrGet, &m.Compare, &m.HashInsert, &m.HashProbe,
		&m.ResultAppend, &m.SlimResultAppend, &m.SortPerCompare,
		&m.SwapRead, &m.SwapWrite, &m.LogWrite, &m.Lock,
	}
}

// rates is the one table that pairs events with constants: entry i prices
// Vector field i (Fields order), under slim the §4.4 Slim* constants for
// ScanNexts, HandleGets, HandleUnrefs and ResultAppends. RPCBytes,
// ServerHits, ServerToClient, ClientHits and ClientFaults are counted but
// free: the paper prices a page read and a message, not a cache hit or a
// byte.
func (m *CostModel) rates(slim bool) [21]time.Duration {
	scan, get, unref, appnd := m.ScanNext, m.HandleGet, m.HandleUnref, m.ResultAppend
	if slim {
		scan, get, unref, appnd = m.SlimScanNext, m.SlimHandleGet, m.SlimHandleUnref, m.SlimResultAppend
	}
	return [21]time.Duration{
		m.PageRead, m.PageWrite, m.RPC, 0,
		0, 0, 0, 0,
		m.LogWrite, m.Lock,
		scan, get, unref, m.AttrGet,
		m.Compare, m.HashInsert, m.HashProbe, appnd,
		m.SortPerCompare, m.SwapRead, m.SwapWrite,
	}
}

// DefaultCostModel returns the calibrated Sparc 20 model described in the
// type documentation. Callers mutate the returned copy for ablations.
func DefaultCostModel() CostModel {
	return CostModel{
		PageRead:         10 * time.Millisecond,
		PageWrite:        10 * time.Millisecond,
		RPC:              200 * time.Microsecond,
		ScanNext:         100 * time.Microsecond,
		HandleGet:        18 * time.Microsecond,
		HandleUnref:      4 * time.Microsecond,
		SlimScanNext:     10 * time.Microsecond,
		SlimHandleGet:    4 * time.Microsecond,
		SlimHandleUnref:  1 * time.Microsecond,
		AttrGet:          2 * time.Microsecond,
		Compare:          100 * time.Nanosecond,
		HashInsert:       1 * time.Microsecond,
		HashProbe:        1 * time.Microsecond,
		ResultAppend:     600 * time.Microsecond,
		SlimResultAppend: 100 * time.Microsecond,
		SortPerCompare:   1 * time.Microsecond,
		SwapRead:         20 * time.Millisecond,
		SwapWrite:        2500 * time.Microsecond,
		LogWrite:         10 * time.Millisecond,
		Lock:             5 * time.Microsecond,
	}
}

// Machine models the testbed's memory geography. Sizes are in bytes.
type Machine struct {
	// RAM is total physical memory (the paper's 128 MB).
	RAM int64
	// ServerCache and ClientCache are the O2 cache sizes (4 MB and 32 MB
	// in the paper's tuned configuration).
	ServerCache int64
	ClientCache int64
	// HashBudget is the memory available to query-evaluation hash tables
	// before the OS starts swapping them. The paper's Figure 10 commentary
	// brackets it: a 14.52 MB table does not swap, a 57.6 MB one does; OS,
	// AFS and the twm window manager claim the rest of the 92 MB left
	// after the caches.
	HashBudget int64
}

// DefaultMachine returns the paper's tuned configuration (§2, §3.2).
func DefaultMachine() Machine {
	return Machine{
		RAM:         128 << 20,
		ServerCache: 4 << 20,
		ClientCache: 32 << 20,
		HashBudget:  20 << 20,
	}
}
