package wire

import (
	"fmt"
	"reflect"
	"time"

	"treebench/internal/codec"
	"treebench/internal/object"
	"treebench/internal/sim"
)

// Optimizer strategies on the wire (a session picks per query).
const (
	StrategyCost      byte = 0
	StrategyHeuristic byte = 1
)

// finish returns d's failure, if any, as a wire error naming the message.
func finish(d *codec.Dec, msg string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("wire: %s: %v", msg, err)
	}
	return nil
}

// Hello opens a connection.
type Hello struct {
	Version uint32
}

// Encode serializes the message payload.
func (m *Hello) Encode() []byte {
	var e codec.Enc
	e.U32(m.Version)
	return e.B
}

// DecodeHello parses a TypeHello payload.
func DecodeHello(b []byte) (*Hello, error) {
	d := codec.NewDec(b)
	m := &Hello{Version: d.U32()}
	return m, finish(d, "hello")
}

// ServerHello acknowledges the handshake.
type ServerHello struct {
	Version uint32
	// Label names the database the server serves ("200x10000 class").
	Label string
}

func (m *ServerHello) Encode() []byte {
	var e codec.Enc
	e.U32(m.Version)
	e.Str(m.Label)
	return e.B
}

// DecodeServerHello parses a TypeServerHello payload.
func DecodeServerHello(b []byte) (*ServerHello, error) {
	d := codec.NewDec(b)
	m := &ServerHello{Version: d.U32(), Label: d.Str()}
	return m, finish(d, "server hello")
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
	var e codec.Enc
	e.Str(m.Stmt)
	e.Bool(m.Warm)
	e.U8(m.Strategy)
	e.U32(m.MaxRows)
	return e.B
}

// DecodeQuery parses a TypeQuery payload.
func DecodeQuery(b []byte) (*Query, error) {
	d := codec.NewDec(b)
	m := &Query{Stmt: d.Str(), Warm: d.Bool(), Strategy: d.U8(), MaxRows: d.U32()}
	if err := finish(d, "query"); err != nil {
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
	var e codec.Enc
	e.Str(m.Plan)
	e.I64(m.Rows)
	e.I64(int64(m.Elapsed))
	encodeCounters(&e, &m.Counters)
	e.U32(uint32(len(m.Aggregates)))
	for _, a := range m.Aggregates {
		e.Str(a.Label)
		e.F64(a.Value)
	}
	encodeSample(&e, m.Sample)
	return e.B
}

// DecodeResult parses a TypeResult payload.
func DecodeResult(b []byte) (*Result, error) {
	d := codec.NewDec(b)
	m := &Result{Plan: d.Str(), Rows: d.I64(), Elapsed: time.Duration(d.I64())}
	decodeCounters(d, &m.Counters)
	if n := d.Count(12, "aggregate"); n > 0 {
		m.Aggregates = make([]Agg, n)
		for i := range m.Aggregates {
			m.Aggregates[i] = Agg{Label: d.Str(), Value: d.F64()}
		}
	}
	m.Sample = decodeSample(d)
	if err := finish(d, "result"); err != nil {
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
	var e codec.Enc
	e.U8(m.Code)
	e.Str(m.Msg)
	return e.B
}

// DecodeError parses a TypeError payload.
func DecodeError(b []byte) (*Error, error) {
	d := codec.NewDec(b)
	m := &Error{Code: d.U8(), Msg: d.Str()}
	return m, finish(d, "error")
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

	// Write path (v6): the MVCC chain and WAL counters, all zero on a
	// read-only server without a chain store.
	HeadVersion int64 // current head version of the chain
	BaseVersion int64 // version folded into the on-disk base snapshot
	Versions    int64 // versions since the last compaction (head − base + 1)
	Commits     int64 // commits performed by this server process
	Compactions int64 // compactions performed by this server process
	WalRecords  int64 // records appended to the WAL since boot
	WalBytes    int64 // payload bytes appended to the WAL since boot
	WalSyncs    int64 // fsync batches — Records/Syncs is the group-commit ratio
	WalTail     int64 // current WAL end offset

	// Index backend (v7): which pluggable index structure the server's
	// sessions run ("btree" or "lsm") and the cumulative backend counters
	// across every executed query. All five counters are zero for the
	// B+-tree except BackendPagesWritten.
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
	PoolReadaheadWasted int64 // prefetched pages evicted or dropped unconsumed
	PoolAdopted         int64 // frames a compaction handed to the base it loaded, unread
	PoolDropped         int64 // frames of bases a compaction replaced, taken out
	PoolRecycled        int64 // misses that reused an evicted frame instead of allocating
	PoolResidentPages   int64 // frames resident at snapshot time
	PoolCapacityPages   int64 // frame capacity
}

// A Stats payload describes itself (v9): a u32 field count, then per field
// its name, a kind byte and the value. Encode walks the struct, so a new
// counter is one struct field; a decoder skips names it does not know, so
// peers of either age still read each other's payloads.
const (
	kindInt64  byte = 1 // i64
	kindString byte = 2 // u32 length + bytes
)

// statsFields holds Stats's field names and kinds in declaration order, and
// statsIndex maps a name to its position.
var statsFields, statsIndex = func() ([]statField, map[string]int) {
	t := reflect.TypeOf(Stats{})
	fields := make([]statField, t.NumField())
	index := make(map[string]int, len(fields))
	for i := range fields {
		f := t.Field(i)
		switch f.Type.Kind() {
		case reflect.Int64:
			fields[i] = statField{f.Name, kindInt64}
		case reflect.String:
			fields[i] = statField{f.Name, kindString}
		default:
			panic("wire: Stats." + f.Name + " is neither int64 nor string")
		}
		index[f.Name] = i
	}
	return fields, index
}()

type statField struct {
	name string
	kind byte
}

func (m *Stats) Encode() []byte {
	var e codec.Enc
	v := reflect.ValueOf(m).Elem()
	e.U32(uint32(len(statsFields)))
	for i, f := range statsFields {
		e.Str(f.name)
		e.U8(f.kind)
		if f.kind == kindInt64 {
			e.I64(v.Field(i).Int())
		} else {
			e.Str(v.Field(i).String())
		}
	}
	return e.B
}

// DecodeStats parses a TypeStats payload. It rejects a known field sent
// with the wrong kind or twice, and skips a field it does not know.
func DecodeStats(b []byte) (*Stats, error) {
	d := codec.NewDec(b)
	m := &Stats{}
	v := reflect.ValueOf(m).Elem()
	seen := make([]bool, len(statsFields))
	n := d.Count(9, "stats field")
	for k := 0; k < n && d.Err() == nil; k++ {
		name, kind := d.Str(), d.U8()
		i, known := statsIndex[name]
		if known && kind != statsFields[i].kind {
			return nil, fmt.Errorf("wire: stats field %s has kind %d, want %d", name, kind, statsFields[i].kind)
		}
		if known && seen[i] {
			return nil, fmt.Errorf("wire: stats field %s repeated", name)
		}
		switch kind {
		case kindInt64:
			x := d.I64()
			if known {
				v.Field(i).SetInt(x)
			}
		case kindString:
			x := d.Str()
			if known {
				v.Field(i).SetString(x)
			}
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("wire: stats field %s has unknown kind %d", name, kind)
			}
		}
		if known {
			seen[i] = true
		}
	}
	return m, finish(d, "stats")
}

// CommitResult answers a TypeCommit: the lineage of the version the
// commit created plus the wave's physical effects (v6). WallUs is the
// server's wall-clock commit latency, including the shared fsync.
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
	var e codec.Enc
	e.U64(m.Version)
	e.U64(m.Wave)
	e.I64(m.Reassigned)
	e.I64(m.Scalars)
	e.Bool(m.Evolved)
	e.I64(m.Upgraded)
	e.I64(m.Relocated)
	e.I64(m.DeltaPages)
	e.I64(m.WalOff)
	e.I64(m.WallUs)
	return e.B
}

// DecodeCommitResult parses a TypeCommitResult payload.
func DecodeCommitResult(b []byte) (*CommitResult, error) {
	d := codec.NewDec(b)
	m := &CommitResult{Version: d.U64(), Wave: d.U64()}
	m.Reassigned = d.I64()
	m.Scalars = d.I64()
	m.Evolved = d.Bool()
	m.Upgraded = d.I64()
	m.Relocated = d.I64()
	m.DeltaPages = d.I64()
	m.WalOff = d.I64()
	m.WallUs = d.I64()
	return m, finish(d, "commit result")
}

func encodeCounters(e *codec.Enc, c *sim.Counters) {
	for _, p := range c.Fields() {
		e.I64(*p)
	}
}

func decodeCounters(d *codec.Dec, c *sim.Counters) {
	for _, p := range c.Fields() {
		*p = d.I64()
	}
}

// encodeSample writes sample rows: the row count, then per row its column
// count and values.
func encodeSample(e *codec.Enc, rows [][]object.Value) {
	e.U32(uint32(len(rows)))
	for _, row := range rows {
		e.U32(uint32(len(row)))
		for _, v := range row {
			e.Value(v)
		}
	}
}

func decodeSample(d *codec.Dec) [][]object.Value {
	n := d.Count(4, "row")
	if n == 0 {
		return nil
	}
	rows := make([][]object.Value, n)
	for i := range rows {
		row := make([]object.Value, d.Count(1, "column"))
		for j := range row {
			row[j] = d.Value()
		}
		rows[i] = row
	}
	return rows
}
