package sim

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

// Counters aggregates every event class the Figure 3 results schema reports,
// plus the CPU-side events §4 analyzes.
type Counters struct {
	// Disk and cache traffic (Figure 3's Stat attributes).
	DiskReads      int64 // D2SCreadpages: pages read disk → server cache
	DiskWrites     int64 // dirty pages written back to disk
	RPCs           int64 // RPCsnumber: client↔server messages
	RPCBytes       int64 // RPCstotalsize
	ServerHits     int64 // server-cache hits
	ServerToClient int64 // SC2CCreadpages: pages read server → client cache
	ClientHits     int64 // client-cache hits
	ClientFaults   int64 // CCPagefaults: client-cache misses
	LogPages       int64 // transaction-log pages written
	Locks          int64 // lock-manager operations
	// CPU-side events.
	ScanNexts     int64
	HandleGets    int64
	HandleUnrefs  int64
	AttrGets      int64
	Compares      int64
	HashInserts   int64
	HashProbes    int64
	ResultAppends int64
	SortSteps     int64 // n·⌈log₂n⌉ per Sort of n elements
	// Swap traffic on oversized in-memory structures.
	SwapReads  int64
	SwapWrites int64
}

// Fields lists every Counters field in declaration order: the one list
// Add, the wire protocol's Result frame and the snapshot file's derby
// section walk. A field added to Counters goes here too
// (TestFieldListsCoverStructs fails otherwise), and since it changes both
// byte formats, wire.Version and persist.FormatVersion move with it.
func (c *Counters) Fields() []*int64 {
	return []*int64{
		&c.DiskReads, &c.DiskWrites, &c.RPCs, &c.RPCBytes,
		&c.ServerHits, &c.ServerToClient, &c.ClientHits, &c.ClientFaults,
		&c.LogPages, &c.Locks,
		&c.ScanNexts, &c.HandleGets, &c.HandleUnrefs, &c.AttrGets,
		&c.Compares, &c.HashInserts, &c.HashProbes, &c.ResultAppends,
		&c.SortSteps, &c.SwapReads, &c.SwapWrites,
	}
}

// Add folds o into c field by field. Addition is commutative, so the sum
// over any set of worker counters is independent of merge order.
func (c *Counters) Add(o Counters) {
	src := o.Fields()
	for i, p := range c.Fields() {
		*p += *src[i]
	}
}

// Price returns the simulated time the counters cost under model m: the
// sum of each counter times its constant, the one place the cost model is
// applied. Under slim, ScanNexts, HandleGets, HandleUnrefs and
// ResultAppends take the §4.4 Slim* constants. ServerHits, ServerToClient,
// ClientHits, ClientFaults and RPCBytes are counted but free: the paper
// prices a page read and a message, not a cache hit or a byte.
func (c *Counters) Price(m CostModel, slim bool) time.Duration {
	scan, get, unref, appnd := m.ScanNext, m.HandleGet, m.HandleUnref, m.ResultAppend
	if slim {
		scan, get, unref, appnd = m.SlimScanNext, m.SlimHandleGet, m.SlimHandleUnref, m.SlimResultAppend
	}
	return time.Duration(c.DiskReads)*m.PageRead +
		time.Duration(c.DiskWrites)*m.PageWrite +
		time.Duration(c.RPCs)*m.RPC +
		time.Duration(c.LogPages)*m.LogWrite +
		time.Duration(c.Locks)*m.Lock +
		time.Duration(c.ScanNexts)*scan +
		time.Duration(c.HandleGets)*get +
		time.Duration(c.HandleUnrefs)*unref +
		time.Duration(c.AttrGets)*m.AttrGet +
		time.Duration(c.Compares)*m.Compare +
		time.Duration(c.HashInserts)*m.HashInsert +
		time.Duration(c.HashProbes)*m.HashProbe +
		time.Duration(c.ResultAppends)*appnd +
		time.Duration(c.SortSteps)*m.SortPerCompare +
		time.Duration(c.SwapReads)*m.SwapRead +
		time.Duration(c.SwapWrites)*m.SwapWrite
}

// ClientMissRate returns the client-cache miss percentage, 0 if no accesses.
func (c *Counters) ClientMissRate() float64 {
	total := c.ClientHits + c.ClientFaults
	if total == 0 {
		return 0
	}
	return 100 * float64(c.ClientFaults) / float64(total)
}

// ServerMissRate returns the server-cache miss percentage, 0 if no accesses.
func (c *Counters) ServerMissRate() float64 {
	total := c.ServerHits + c.DiskReads
	if total == 0 {
		return 0
	}
	return 100 * float64(c.DiskReads) / float64(total)
}

// Meter counts the operations the engine charges and prices them under a
// cost model. All engine layers share one Meter per session.
type Meter struct {
	Model CostModel
	N     Counters

	slimHandles bool
}

// NewMeter returns a Meter over the given cost model.
func NewMeter(m CostModel) *Meter {
	return &Meter{Model: m}
}

// SetSlimHandles switches handle pricing to the §4.4 compact-handle costs.
// Elapsed prices every counted event at the current setting, so the setting
// changes only between runs, after a Reset (ColdRestart does one).
func (m *Meter) SetSlimHandles(on bool) { m.slimHandles = on }

// SlimHandles reports whether slim-handle pricing is active.
func (m *Meter) SlimHandles() bool { return m.slimHandles }

// Elapsed returns the simulated time consumed so far.
func (m *Meter) Elapsed() time.Duration { return m.N.Price(m.Model, m.slimHandles) }

// Reset zeroes all counters, keeping the model.
func (m *Meter) Reset() { m.N = Counters{} }

// Snapshot returns a copy of the current counters.
func (m *Meter) Snapshot() Counters { return m.N }

// Merge folds worker meters into m: the counters sum. The simulated
// machine is the paper's uniprocessor, so merged elapsed time is the total
// work done — parallel chunk execution changes wall-clock time, never
// simulated time. Addition is commutative, so the totals are independent of
// merge order; callers still merge in chunk-index order by convention so
// that any future order-sensitive accounting stays deterministic.
func (m *Meter) Merge(workers ...*Meter) {
	for _, w := range workers {
		m.N.Add(w.N)
	}
}

func (m *Meter) DiskRead()  { m.N.DiskReads++ }
func (m *Meter) DiskWrite() { m.N.DiskWrites++ }

// RPC charges one client↔server message carrying n bytes.
func (m *Meter) RPC(n int) {
	m.N.RPCs++
	m.N.RPCBytes += int64(n)
}

func (m *Meter) ServerHit()      { m.N.ServerHits++ }
func (m *Meter) ServerToClient() { m.N.ServerToClient++ }
func (m *Meter) ClientHit()      { m.N.ClientHits++ }
func (m *Meter) ClientFault()    { m.N.ClientFaults++ }

func (m *Meter) LogWrite() { m.N.LogPages++ }

// Lock charges one lock-management operation (standard transaction mode).
func (m *Meter) Lock() { m.N.Locks++ }

// ScanNext charges the generic scan operator's per-object overhead.
func (m *Meter) ScanNext() { m.N.ScanNexts++ }

func (m *Meter) HandleGet()   { m.N.HandleGets++ }
func (m *Meter) HandleUnref() { m.N.HandleUnrefs++ }
func (m *Meter) AttrGet()     { m.N.AttrGets++ }
func (m *Meter) Compare()     { m.N.Compares++ }

// Compares charges n comparisons in one step.
func (m *Meter) Compares(n int64) {
	if n > 0 {
		m.N.Compares += n
	}
}

func (m *Meter) HashInsert()   { m.N.HashInserts++ }
func (m *Meter) HashProbe()    { m.N.HashProbes++ }
func (m *Meter) ResultAppend() { m.N.ResultAppends++ }

// Sort charges an in-memory sort of n elements: n·⌈log₂n⌉ steps at the
// sort rate. This is the cost of §4.2's "sort 1.8M Rids" step.
func (m *Meter) Sort(n int64) {
	if n > 1 {
		m.N.SortSteps += n * int64(bits.Len64(uint64(n-1)))
	}
}

func (m *Meter) SwapRead()  { m.N.SwapReads++ }
func (m *Meter) SwapWrite() { m.N.SwapWrites++ }

// String formats the counters as a compact single-line report.
func (m *Meter) String() string {
	var b strings.Builder
	n := m.N
	fmt.Fprintf(&b, "t=%.2fs io(r=%d w=%d) rpc=%d cc(hit=%d miss=%d) sc(hit=%d miss=%d)",
		m.Elapsed().Seconds(), n.DiskReads, n.DiskWrites, n.RPCs,
		n.ClientHits, n.ClientFaults, n.ServerHits, n.DiskReads)
	fmt.Fprintf(&b, " handles=%d/%d hash(i=%d p=%d) swap(r=%d w=%d)",
		n.HandleGets, n.HandleUnrefs, n.HashInserts, n.HashProbes, n.SwapReads, n.SwapWrites)
	return b.String()
}
