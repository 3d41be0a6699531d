package wire

import (
	"fmt"
	"time"

	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Optimizer strategies on the wire (a session picks per query).
const (
	StrategyCost      byte = 0
	StrategyHeuristic byte = 1
)

// Hello opens a connection.
type Hello struct {
	Version uint32
}

// Encode serializes the message payload.
func (m *Hello) Encode() []byte {
	var e enc
	e.u32(m.Version)
	return e.b
}

// DecodeHello parses a TypeHello payload.
func DecodeHello(b []byte) (*Hello, error) {
	d := newDec(b)
	m := &Hello{Version: d.u32()}
	return m, d.finish("hello")
}

// ServerHello acknowledges the handshake.
type ServerHello struct {
	Version uint32
	// Label names the database the server serves ("200x10000 class").
	Label string
	// ShardIdx/ShardCnt identify the server's slice of a distributed
	// cluster; (0, 0) — like (0, 1) — is a standalone single-node server
	// (v5). A coordinator refuses to scatter to a shard whose identity
	// does not match its cluster plan.
	ShardIdx uint32
	ShardCnt uint32
	// SnapshotKey is the content-addressed persist key of the snapshot
	// configuration the server serves ("" when unknown). Shards of one
	// cluster must agree on it — it proves they serve the same data (v5).
	SnapshotKey string
}

func (m *ServerHello) Encode() []byte {
	var e enc
	e.u32(m.Version)
	e.str(m.Label)
	e.u32(m.ShardIdx)
	e.u32(m.ShardCnt)
	e.str(m.SnapshotKey)
	return e.b
}

// DecodeServerHello parses a TypeServerHello payload.
func DecodeServerHello(b []byte) (*ServerHello, error) {
	d := newDec(b)
	m := &ServerHello{Version: d.u32(), Label: d.str(),
		ShardIdx: d.u32(), ShardCnt: d.u32(), SnapshotKey: d.str()}
	return m, d.finish("server hello")
}

// Query asks for one OQL statement's execution.
type Query struct {
	Stmt string
	// Warm keeps the session's replica caches warm instead of the default
	// cold restart before the query (the paper's measurement discipline).
	Warm bool
	// Strategy selects the optimizer (StrategyCost or StrategyHeuristic).
	Strategy byte
	// MaxRows caps how many sample rows the server ships back. The full
	// row count always comes back in Result.Rows.
	MaxRows uint32
}

func (m *Query) Encode() []byte {
	var e enc
	e.str(m.Stmt)
	e.bool(m.Warm)
	e.u8(m.Strategy)
	e.u32(m.MaxRows)
	return e.b
}

// DecodeQuery parses a TypeQuery payload.
func DecodeQuery(b []byte) (*Query, error) {
	d := newDec(b)
	m := &Query{Stmt: d.str(), Warm: d.boolv(), Strategy: d.u8(), MaxRows: d.u32()}
	if err := d.finish("query"); err != nil {
		return nil, err
	}
	if m.Strategy > StrategyHeuristic {
		return nil, fmt.Errorf("wire: unknown strategy %d", m.Strategy)
	}
	return m, nil
}

// Agg is one computed aggregate of a Result.
type Agg struct {
	Label string
	Value float64
}

// Result is the neutral, renderable form of an executed query: everything
// the shell prints (plan, aggregates, sample rows, row count, simulated
// elapsed time, Figure 3 counters) and nothing engine-internal.
type Result struct {
	// Plan is the executed plan's Explain rendering, including the costed
	// alternatives.
	Plan string
	// Rows is the full matching row count (the sample may be shorter).
	Rows int64
	// Elapsed is the simulated elapsed time.
	Elapsed time.Duration
	// Counters is the query's Figure 3 counter snapshot.
	Counters sim.Counters
	// Aggregates holds computed aggregates in projection order.
	Aggregates []Agg
	// Sample holds up to the requested MaxRows materialized rows.
	Sample [][]object.Value
}

func (m *Result) Encode() []byte {
	var e enc
	e.str(m.Plan)
	e.i64(m.Rows)
	e.i64(int64(m.Elapsed))
	encodeCounters(&e, &m.Counters)
	e.u32(uint32(len(m.Aggregates)))
	for _, a := range m.Aggregates {
		e.str(a.Label)
		e.f64(a.Value)
	}
	e.u32(uint32(len(m.Sample)))
	for _, row := range m.Sample {
		e.u32(uint32(len(row)))
		for _, v := range row {
			encodeValue(&e, v)
		}
	}
	return e.b
}

// DecodeResult parses a TypeResult payload.
func DecodeResult(b []byte) (*Result, error) {
	d := newDec(b)
	m := &Result{Plan: d.str(), Rows: d.i64(), Elapsed: time.Duration(d.i64())}
	decodeCounters(d, &m.Counters)
	if n := d.count(12, "aggregate"); n > 0 {
		m.Aggregates = make([]Agg, n)
		for i := range m.Aggregates {
			m.Aggregates[i] = Agg{Label: d.str(), Value: d.f64()}
		}
	}
	if n := d.count(4, "row"); n > 0 {
		m.Sample = make([][]object.Value, n)
		for i := range m.Sample {
			cols := d.count(1, "column")
			row := make([]object.Value, cols)
			for j := range row {
				row[j] = decodeValue(d)
			}
			m.Sample[i] = row
		}
	}
	if err := d.finish("result"); err != nil {
		return nil, err
	}
	return m, nil
}

// Error reports a failed request.
type Error struct {
	Code byte
	Msg  string
}

func (m *Error) Encode() []byte {
	var e enc
	e.u8(m.Code)
	e.str(m.Msg)
	return e.b
}

// DecodeError parses a TypeError payload.
func DecodeError(b []byte) (*Error, error) {
	d := newDec(b)
	m := &Error{Code: d.u8(), Msg: d.str()}
	return m, d.finish("error")
}

// Stats is the server's counters snapshot (the daemon's answer to the
// shell's .stats habit): admission and lifecycle counters plus wall and
// simulated latency summaries with their equi-depth histograms.
type Stats struct {
	Served          int64 // queries executed to completion (ok or query error)
	QueryErrors     int64 // of Served, how many failed to parse/plan/execute
	Rejected        int64 // admission-control rejections (queue full)
	TimedOut        int64 // queries cut off by the per-query budget
	ActiveSessions  int64 // connected sessions right now
	QueueDepth      int64 // queries waiting for an admission slot right now
	Sessions        int64 // concurrently executing sessions the server is sized for
	BusySessions    int64 // queries executing right now
	SnapshotPages   int64 // pages in the shared database snapshot (0 until generated)
	SnapshotBytes   int64 // bytes of the shared database snapshot (0 until generated)
	PlanCacheHits   int64 // plan-cache hits across all sessions
	PlanCacheMisses int64 // plan-cache misses (compiles) across all sessions

	// Chosen-plan provenance (v4): how many executed queries ran under
	// each optimizer strategy, the vectorized-execution batch size the
	// server's sessions run with (1 = one record per batch), and the access
	// path or join algorithm of the most recently executed query.
	PlansCost      int64
	PlansHeuristic int64
	BatchSize      int64

	// Wall-clock latency percentiles, in microseconds.
	WallP50us, WallP95us, WallP99us int64
	// Simulated-time latency percentiles, in milliseconds.
	SimP50ms, SimP95ms, SimP99ms int64
	// WallHist and SimHist are equi-depth histogram renderings
	// ("[lo,hi):count ..." buckets) of the same two populations.
	WallHist string
	SimHist  string

	// SnapshotSource records where the served snapshot came from:
	// "generated" for a fresh build, "cache" for a persisted snapshot
	// loaded from disk (with its path), "" until the database exists.
	SnapshotSource string

	// LastOperator is the executed operator of the most recent query:
	// a selection access path ("scan", "index", "index+sort") or a join
	// algorithm ("PHJ", ...), "" until a query ran (v4).
	LastOperator string

	// ShardIdx/ShardCnt are the server's shard identity; (0, 0) for a
	// standalone single-node server (v5).
	ShardIdx int64
	ShardCnt int64

	// Write path (v6): the MVCC chain and WAL counters, all zero on a
	// read-only server without a chain store.
	HeadVersion int64 // current head version of the chain
	BaseVersion int64 // version folded into the on-disk base snapshot
	Versions    int64 // live (un-GC'd) versions in the chain
	Commits     int64 // commits performed by this server process
	Compactions int64 // compactions performed by this server process
	WalRecords  int64 // records appended to the WAL since boot
	WalBytes    int64 // payload bytes appended to the WAL since boot
	WalSyncs    int64 // fsync batches — Records/Syncs is the group-commit ratio
	WalTail     int64 // current WAL end offset

	// Index backend (v7): which pluggable index structure the server's
	// sessions run ("btree", "disk", "lsm") and the cumulative backend
	// counters across every executed query. All five counters are zero for
	// the in-memory B+-tree except BackendPagesWritten.
	IndexBackend        string
	BackendBloomHits    int64
	BackendBloomMisses  int64
	BackendSSTablesRead int64
	BackendCompactions  int64
	BackendPagesWritten int64

	// Buffer pool (v8): the process-wide shared page pool's counters —
	// real I/O economics, entirely invisible to the simulated meters.
	// Only the capacity is non-zero when the snapshot was generated in
	// memory rather than loaded from a file.
	PoolHits            int64 // page reads served from resident frames
	PoolMisses          int64 // page reads that faulted from the file
	PoolEvictions       int64 // frames dropped under capacity pressure
	PoolReadaheadIssued int64 // tail pages admitted by sequential misses' window reads
	PoolReadaheadUsed   int64 // prefetched pages later consumed
	PoolReadaheadWasted int64 // prefetched pages evicted unconsumed
	PoolResidentPages   int64 // frames resident at snapshot time
	PoolCapacityPages   int64 // frame capacity
}

func (m *Stats) Encode() []byte {
	var e enc
	for _, v := range []int64{
		m.Served, m.QueryErrors, m.Rejected, m.TimedOut,
		m.ActiveSessions, m.QueueDepth, m.Sessions, m.BusySessions,
		m.WallP50us, m.WallP95us, m.WallP99us,
		m.SimP50ms, m.SimP95ms, m.SimP99ms,
		m.SnapshotPages, m.SnapshotBytes,
		m.PlanCacheHits, m.PlanCacheMisses,
		m.PlansCost, m.PlansHeuristic, m.BatchSize,
		m.ShardIdx, m.ShardCnt,
		m.HeadVersion, m.BaseVersion, m.Versions, m.Commits, m.Compactions,
		m.WalRecords, m.WalBytes, m.WalSyncs, m.WalTail,
		m.BackendBloomHits, m.BackendBloomMisses, m.BackendSSTablesRead,
		m.BackendCompactions, m.BackendPagesWritten,
		m.PoolHits, m.PoolMisses, m.PoolEvictions,
		m.PoolReadaheadIssued, m.PoolReadaheadUsed, m.PoolReadaheadWasted,
		m.PoolResidentPages, m.PoolCapacityPages,
	} {
		e.i64(v)
	}
	e.str(m.WallHist)
	e.str(m.SimHist)
	e.str(m.SnapshotSource)
	e.str(m.LastOperator)
	e.str(m.IndexBackend)
	return e.b
}

// DecodeStats parses a TypeStats payload.
func DecodeStats(b []byte) (*Stats, error) {
	d := newDec(b)
	m := &Stats{}
	for _, p := range []*int64{
		&m.Served, &m.QueryErrors, &m.Rejected, &m.TimedOut,
		&m.ActiveSessions, &m.QueueDepth, &m.Sessions, &m.BusySessions,
		&m.WallP50us, &m.WallP95us, &m.WallP99us,
		&m.SimP50ms, &m.SimP95ms, &m.SimP99ms,
		&m.SnapshotPages, &m.SnapshotBytes,
		&m.PlanCacheHits, &m.PlanCacheMisses,
		&m.PlansCost, &m.PlansHeuristic, &m.BatchSize,
		&m.ShardIdx, &m.ShardCnt,
		&m.HeadVersion, &m.BaseVersion, &m.Versions, &m.Commits, &m.Compactions,
		&m.WalRecords, &m.WalBytes, &m.WalSyncs, &m.WalTail,
		&m.BackendBloomHits, &m.BackendBloomMisses, &m.BackendSSTablesRead,
		&m.BackendCompactions, &m.BackendPagesWritten,
		&m.PoolHits, &m.PoolMisses, &m.PoolEvictions,
		&m.PoolReadaheadIssued, &m.PoolReadaheadUsed, &m.PoolReadaheadWasted,
		&m.PoolResidentPages, &m.PoolCapacityPages,
	} {
		*p = d.i64()
	}
	m.WallHist = d.str()
	m.SimHist = d.str()
	m.SnapshotSource = d.str()
	m.LastOperator = d.str()
	m.IndexBackend = d.str()
	return m, d.finish("stats")
}

// Scatter asks a shard to execute its slice of one OQL statement (v5).
// The shard plans the statement itself (planning is meter-free — histograms
// are primed at boot) and executes under the chunk-ownership mask
// (ShardIdx, ShardCnt); the coordinator cross-checks the identity against
// the shard's handshake before trusting the reply.
type Scatter struct {
	Stmt string
	// Strategy selects the optimizer (StrategyCost or StrategyHeuristic);
	// every shard must plan identically, which identical snapshots and
	// strategies guarantee.
	Strategy byte
	ShardIdx uint32
	ShardCnt uint32
}

func (m *Scatter) Encode() []byte {
	var e enc
	e.str(m.Stmt)
	e.u8(m.Strategy)
	e.u32(m.ShardIdx)
	e.u32(m.ShardCnt)
	return e.b
}

// DecodeScatter parses a TypeScatter payload.
func DecodeScatter(b []byte) (*Scatter, error) {
	d := newDec(b)
	m := &Scatter{Stmt: d.str(), Strategy: d.u8(), ShardIdx: d.u32(), ShardCnt: d.u32()}
	if err := d.finish("scatter"); err != nil {
		return nil, err
	}
	if m.Strategy > StrategyHeuristic {
		return nil, fmt.Errorf("wire: unknown strategy %d", m.Strategy)
	}
	if m.ShardCnt > 0 && m.ShardIdx >= m.ShardCnt {
		return nil, fmt.Errorf("wire: shard %d out of range of %d", m.ShardIdx, m.ShardCnt)
	}
	return m, nil
}

// PartialAgg is one aggregate's mergeable intermediate state (mirrors
// oql.AggPartial): a coordinator merges per-shard states in shard order
// and finalizes once — an avg cannot be merged from finalized values.
type PartialAgg struct {
	// Agg is the aggregate function name ("count", "sum", "min", "max",
	// "avg"); Label is its rendered header ("avg(age)").
	Agg   string
	Label string
	N     int64
	Sum   int64
	Min   int64
	Max   int64
}

// Partial carries one shard's slice of a scattered query (v5): the rows it
// owned, its meter readings, mergeable aggregate states, and its unsorted
// sample (hidden order-by columns intact — the coordinator sorts and strips
// after merging).
type Partial struct {
	Rows     int64
	Elapsed  time.Duration
	Counters sim.Counters
	Aggs     []PartialAgg
	// Sample holds the shard's materialized rows, up to the executor's
	// SampleLimit (not the client's MaxRows — the coordinator needs the
	// full sample to sort and trim globally).
	Sample [][]object.Value
	// Truncated reports the shard kept fewer rows than matched.
	Truncated bool
}

func (m *Partial) Encode() []byte {
	var e enc
	e.i64(m.Rows)
	e.i64(int64(m.Elapsed))
	encodeCounters(&e, &m.Counters)
	e.u32(uint32(len(m.Aggs)))
	for _, a := range m.Aggs {
		e.str(a.Agg)
		e.str(a.Label)
		e.i64(a.N)
		e.i64(a.Sum)
		e.i64(a.Min)
		e.i64(a.Max)
	}
	e.u32(uint32(len(m.Sample)))
	for _, row := range m.Sample {
		e.u32(uint32(len(row)))
		for _, v := range row {
			encodeValue(&e, v)
		}
	}
	e.bool(m.Truncated)
	return e.b
}

// DecodePartial parses a TypePartial payload.
func DecodePartial(b []byte) (*Partial, error) {
	d := newDec(b)
	m := &Partial{Rows: d.i64(), Elapsed: time.Duration(d.i64())}
	decodeCounters(d, &m.Counters)
	if n := d.count(40, "partial aggregate"); n > 0 {
		m.Aggs = make([]PartialAgg, n)
		for i := range m.Aggs {
			m.Aggs[i] = PartialAgg{
				Agg: d.str(), Label: d.str(),
				N: d.i64(), Sum: d.i64(), Min: d.i64(), Max: d.i64(),
			}
		}
	}
	if n := d.count(4, "partial row"); n > 0 {
		m.Sample = make([][]object.Value, n)
		for i := range m.Sample {
			cols := d.count(1, "partial column")
			row := make([]object.Value, cols)
			for j := range row {
				row[j] = decodeValue(d)
			}
			m.Sample[i] = row
		}
	}
	m.Truncated = d.boolv()
	if err := d.finish("partial"); err != nil {
		return nil, err
	}
	return m, nil
}

// ShardStat is one shard's entry in a ClusterStats reply: its identity,
// address, liveness, and — when reachable — its Stats snapshot.
type ShardStat struct {
	Idx  uint32
	Addr string
	Up   bool
	// Stats is nil when the shard was unreachable.
	Stats *Stats
}

// ClusterStats is the coordinator's per-shard stats view (v5): the rendered
// shard map plus every shard's snapshot, in shard-index order.
type ClusterStats struct {
	// Map is the coordinator's rendered shard map (one line per shard's
	// chunk-ownership block).
	Map    string
	Shards []ShardStat
}

func (m *ClusterStats) Encode() []byte {
	var e enc
	e.str(m.Map)
	e.u32(uint32(len(m.Shards)))
	for _, s := range m.Shards {
		e.u32(s.Idx)
		e.str(s.Addr)
		e.bool(s.Up)
		if s.Stats != nil {
			e.str(string(s.Stats.Encode()))
		} else {
			e.str("")
		}
	}
	return e.b
}

// DecodeClusterStats parses a TypeClusterStats payload.
func DecodeClusterStats(b []byte) (*ClusterStats, error) {
	d := newDec(b)
	m := &ClusterStats{Map: d.str()}
	if n := d.count(10, "shard stat"); n > 0 {
		m.Shards = make([]ShardStat, n)
		for i := range m.Shards {
			s := ShardStat{Idx: d.u32(), Addr: d.str(), Up: d.boolv()}
			if raw := d.str(); raw != "" {
				st, err := DecodeStats([]byte(raw))
				if err != nil {
					return nil, fmt.Errorf("wire: shard %d stats: %w", s.Idx, err)
				}
				s.Stats = st
			}
			m.Shards[i] = s
		}
	}
	if err := d.finish("cluster stats"); err != nil {
		return nil, err
	}
	return m, nil
}

// CommitResult answers a TypeCommit: the lineage of the version the
// commit created plus the wave's physical effects (v6). WallUs is the
// wall-clock commit latency including the shared fsync — the number the
// oqlload -mix axis aggregates.
type CommitResult struct {
	Version    uint64
	Wave       uint64
	Reassigned int64
	Scalars    int64
	Evolved    bool
	Upgraded   int64
	Relocated  int64
	DeltaPages int64
	WalOff     int64
	WallUs     int64
}

func (m *CommitResult) Encode() []byte {
	var e enc
	e.u64(m.Version)
	e.u64(m.Wave)
	e.i64(m.Reassigned)
	e.i64(m.Scalars)
	e.bool(m.Evolved)
	e.i64(m.Upgraded)
	e.i64(m.Relocated)
	e.i64(m.DeltaPages)
	e.i64(m.WalOff)
	e.i64(m.WallUs)
	return e.b
}

// DecodeCommitResult parses a TypeCommitResult payload.
func DecodeCommitResult(b []byte) (*CommitResult, error) {
	d := newDec(b)
	m := &CommitResult{Version: d.u64(), Wave: d.u64()}
	m.Reassigned = d.i64()
	m.Scalars = d.i64()
	m.Evolved = d.boolv()
	m.Upgraded = d.i64()
	m.Relocated = d.i64()
	m.DeltaPages = d.i64()
	m.WalOff = d.i64()
	m.WallUs = d.i64()
	return m, d.finish("commit result")
}

// counterFields lists every sim.Counters field in wire order. Appending a
// field to sim.Counters requires appending it here (and bumping Version if
// old peers must be locked out).
func counterFields(c *sim.Counters) []*int64 {
	return []*int64{
		&c.DiskReads, &c.DiskWrites, &c.RPCs, &c.RPCBytes,
		&c.ServerHits, &c.ServerToClient, &c.ClientHits, &c.ClientFaults,
		&c.LogPages, &c.Locks,
		&c.ScanNexts, &c.HandleGets, &c.HandleUnrefs, &c.AttrGets,
		&c.Compares, &c.HashInserts, &c.HashProbes, &c.ResultAppends,
		&c.SortedElems, &c.SwapReads, &c.SwapWrites,
	}
}

func encodeCounters(e *enc, c *sim.Counters) {
	for _, p := range counterFields(c) {
		e.i64(*p)
	}
}

func decodeCounters(d *dec, c *sim.Counters) {
	for _, p := range counterFields(c) {
		*p = d.i64()
	}
}

// encodeValue writes one object.Value. The kinds mirror the object layer:
// ints and chars carry their integer, strings their bytes, refs and sets
// their Rid.
func encodeValue(e *enc, v object.Value) {
	e.u8(byte(v.Kind))
	switch v.Kind {
	case object.KindInt, object.KindChar:
		e.i64(v.Int)
	case object.KindString:
		e.str(v.Str)
	case object.KindRef, object.KindSet:
		e.u32(uint32(v.Ref.Page))
		e.u16(v.Ref.Slot)
	}
}

func decodeValue(d *dec) object.Value {
	v := object.Value{Kind: object.Kind(d.u8())}
	switch v.Kind {
	case object.KindInt, object.KindChar:
		v.Int = d.i64()
	case object.KindString:
		v.Str = d.str()
	case object.KindRef, object.KindSet:
		v.Ref = storage.Rid{Page: storage.PageID(d.u32()), Slot: d.u16()}
	default:
		d.fail("value kind")
	}
	return v
}
