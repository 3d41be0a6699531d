package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"treebench/internal/histogram"
	"treebench/internal/index"
	"treebench/internal/oql"
	"treebench/internal/wire"
)

// latencyWindow is how many of the most recent served queries the latency
// percentiles and histograms are computed over. Below it the populations
// are exact over the daemon's whole life; past it memory stays flat.
const latencyWindow = 1 << 16

// Metrics is the daemon's counters snapshot source: lifecycle and
// admission counters plus the two latency populations (wall-clock and
// simulated) that back the .metrics-style Stats response. The simulated
// population is the interesting one for the paper's methodology — it is
// deterministic per query mix — while the wall population shows what the
// host actually did. The zero value is ready to use.
type Metrics struct {
	// sessions counts open connections; rejected and timedOut count
	// requests refused admission and stopped by their deadline.
	sessions, rejected, timedOut atomic.Int64

	mu          sync.Mutex
	served      int64
	queryErrors int64
	planHits    int64  // plan-cache hits across all sessions
	planMisses  int64  // plan-cache misses (compiles) across all sessions
	plansCost   int64  // executed queries planned cost-based
	plansHeur   int64  // executed queries planned heuristically
	lastOp      string // operator of the most recently executed query

	// wallUs (microseconds) and simMs (milliseconds) hold one sample per
	// served query, the most recent latencyWindow of them: next is the slot
	// the following sample takes, growing the slices until they are full
	// and overwriting the oldest sample from then on.
	wallUs, simMs []int64
	next          int

	// backend accumulates per-query index-backend counter deltas (bloom
	// probes, SSTables read, compactions, pages written) across sessions.
	backend index.BackendCounters
}

// recordDeltas rolls what one execution added to its session's plan-cache
// and index-backend counters into the totals.
func (m *Metrics) recordDeltas(planHits, planMisses int64, backend index.BackendCounters) {
	m.mu.Lock()
	m.planHits += planHits
	m.planMisses += planMisses
	m.backend.Add(backend)
	m.mu.Unlock()
}

// Failed notes one query that was answered with an error.
func (m *Metrics) Failed() {
	m.mu.Lock()
	m.served++
	m.queryErrors++
	m.mu.Unlock()
}

// Served notes one executed query: its two latencies and its plan's
// provenance — which optimizer strategy picked the plan and which operator
// ran (an access path for selections, an algorithm for joins).
func (m *Metrics) Served(plan *oql.Plan, wall, simulated time.Duration) {
	operator := string(plan.Access)
	if plan.Kind == oql.PlanTreeJoin {
		operator = string(plan.Algorithm)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.served++
	if plan.Strategy == oql.Heuristic {
		m.plansHeur++
	} else {
		m.plansCost++
	}
	m.lastOp = operator
	if len(m.wallUs) < latencyWindow {
		m.wallUs = append(m.wallUs, 0)
		m.simMs = append(m.simMs, 0)
	}
	m.wallUs[m.next] = wall.Microseconds()
	m.simMs[m.next] = simulated.Milliseconds()
	m.next = (m.next + 1) % latencyWindow
}

// Stats renders the counters and latency summaries. The gauges a daemon
// reads off its own state (queue depth, session occupancy, snapshot
// memory) are the caller's to fill in.
func (m *Metrics) Stats() *wire.Stats {
	m.mu.Lock()
	s := &wire.Stats{
		Served:          m.served,
		QueryErrors:     m.queryErrors,
		Rejected:        m.rejected.Load(),
		TimedOut:        m.timedOut.Load(),
		ActiveSessions:  m.sessions.Load(),
		PlanCacheHits:   m.planHits,
		PlanCacheMisses: m.planMisses,
		PlansCost:       m.plansCost,
		PlansHeuristic:  m.plansHeur,
		LastOperator:    m.lastOp,

		BackendBloomHits:    m.backend.BloomHits,
		BackendBloomMisses:  m.backend.BloomMisses,
		BackendSSTablesRead: m.backend.SSTablesRead,
		BackendCompactions:  m.backend.Compactions,
		BackendPagesWritten: m.backend.PagesWritten,
	}
	// Copy under the lock, sort outside it: recording never waits on a
	// Stats request's sort.
	wall, sim := slices.Clone(m.wallUs), slices.Clone(m.simMs)
	m.mu.Unlock()
	s.WallP50us, s.WallP95us, s.WallP99us, s.WallHist = summarize(wall)
	s.SimP50ms, s.SimP95ms, s.SimP99ms, s.SimHist = summarize(sim)
	return s
}

// summarize computes p50/p95/p99 and an equi-depth histogram over one
// latency population, sorting it in place.
func summarize(pop []int64) (p50, p95, p99 int64, hist string) {
	if len(pop) == 0 {
		return 0, 0, 0, ""
	}
	slices.Sort(pop)
	return percentile(pop, 50), percentile(pop, 95), percentile(pop, 99), histogram.Build(pop, 8).String()
}

// percentile reads the nearest-rank percentile from sorted keys.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
