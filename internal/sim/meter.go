package sim

import (
	"math/bits"
	"time"
)

// Vector holds one number per event class the Figure 3 results schema
// reports, plus the CPU-side events §4 analyzes. Counters, the int64
// instance, is what a run counted; Expected, the float64 instance, is what
// the planner predicts a run will count. Both walk one field list and are
// priced by one rate table (CostModel.rates), so an estimate and a
// measurement can be compared event by event.
type Vector[T int64 | float64] struct {
	// Disk and cache traffic (Figure 3's Stat attributes).
	DiskReads      T // D2SCreadpages: pages read disk → server cache
	DiskWrites     T // dirty pages written back to disk
	RPCs           T // RPCsnumber: client↔server messages
	RPCBytes       T // RPCstotalsize
	ServerHits     T // server-cache hits
	ServerToClient T // SC2CCreadpages: pages read server → client cache
	ClientHits     T // client-cache hits
	ClientFaults   T // CCPagefaults: client-cache misses
	LogPages       T // transaction-log pages written
	Locks          T // lock-manager operations
	// CPU-side events.
	ScanNexts     T
	HandleGets    T
	HandleUnrefs  T
	AttrGets      T
	Compares      T
	HashInserts   T
	HashProbes    T
	ResultAppends T
	SortSteps     T // n·⌈log₂n⌉ per Sort of n elements
	// Swap traffic on oversized in-memory structures.
	SwapReads  T
	SwapWrites T
}

// Counters are the events a run counted.
type Counters = Vector[int64]

// Expected are the events the planner predicts a run will count.
type Expected = Vector[float64]

// Fields lists every Vector field in declaration order: the one list
// Add, Price, the wire protocol's Result frame and the snapshot file's
// derby section walk. A field added to Vector goes here too
// (TestFieldListsCoverStructs fails otherwise), together with its rate in
// CostModel.rates, and since it changes both byte formats, wire.Version
// and persist.FormatVersion move with it.
func (v *Vector[T]) Fields() []*T {
	return []*T{
		&v.DiskReads, &v.DiskWrites, &v.RPCs, &v.RPCBytes,
		&v.ServerHits, &v.ServerToClient, &v.ClientHits, &v.ClientFaults,
		&v.LogPages, &v.Locks,
		&v.ScanNexts, &v.HandleGets, &v.HandleUnrefs, &v.AttrGets,
		&v.Compares, &v.HashInserts, &v.HashProbes, &v.ResultAppends,
		&v.SortSteps, &v.SwapReads, &v.SwapWrites,
	}
}

// Add folds o into v field by field. Addition is commutative, so the sum
// over any set of worker counters is independent of merge order.
func (v *Vector[T]) Add(o Vector[T]) {
	src := o.Fields()
	for i, p := range v.Fields() {
		*p += *src[i]
	}
}

// Price returns the simulated nanoseconds v costs under model m: each
// field times its rate in m.rates(slim), the one place the cost model is
// applied. For Counters the sum is exact integer arithmetic.
func (v *Vector[T]) Price(m CostModel, slim bool) T {
	r := m.rates(slim)
	var sum T
	for i, p := range v.Fields() {
		sum += *p * T(r[i])
	}
	return sum
}

// Seconds prices v under m's model and slim setting, the pricing Elapsed
// applies to the meter's own counters: what a counted or a predicted set
// of events costs in simulated seconds.
func Seconds[T int64 | float64](m *Meter, v Vector[T]) float64 {
	return float64(v.Price(m.Model, m.slimHandles)) / float64(time.Second)
}

// ClientMissRate returns the client-cache miss percentage, 0 if no accesses.
func (v *Vector[T]) ClientMissRate() float64 {
	total := v.ClientHits + v.ClientFaults
	if total == 0 {
		return 0
	}
	return 100 * float64(v.ClientFaults) / float64(total)
}

// ServerMissRate returns the server-cache miss percentage, 0 if no accesses.
func (v *Vector[T]) ServerMissRate() float64 {
	total := v.ServerHits + v.DiskReads
	if total == 0 {
		return 0
	}
	return 100 * float64(v.DiskReads) / float64(total)
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
func (m *Meter) Elapsed() time.Duration { return time.Duration(m.N.Price(m.Model, m.slimHandles)) }

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
