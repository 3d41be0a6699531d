package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"treebench/internal/client"
	"treebench/internal/core"
	"treebench/internal/derby"
	"treebench/internal/object"
	"treebench/internal/oql"
	"treebench/internal/server"
	"treebench/internal/session"
	"treebench/internal/sim"
	"treebench/internal/wire"
)

// Config parameterizes a Coordinator.
type Config struct {
	// ShardAddrs lists the shard daemons in shard-index order: ShardAddrs[i]
	// must be a treebenchd running with -shard i/N. At least one is required.
	ShardAddrs []string
	// Source produces the coordinator's local snapshot plus a provenance
	// label. The coordinator never executes queries on it — it plans on it
	// (classification, the Explain rendering, order-by metadata) and reads
	// the cost model for the one global sort charge. It must be the same
	// snapshot configuration the shards serve; SnapshotKey proves that.
	Source func() (*derby.Snapshot, string, error)
	// Label names the served database in the handshake.
	Label string
	// SnapshotKey is the content-addressed persist key of the cluster's
	// snapshot configuration. The coordinator refuses shards that announce
	// a different key ("" disables the check).
	SnapshotKey string
	// Dial tunes the coordinator's shard connections (retry/backoff,
	// IO timeout). Zero values take the client defaults.
	Dial client.Options
	// QueryTimeout bounds one distributed query end to end; 0 means 60s
	// (a scatter pays the slowest shard, so the budget is deliberately
	// wider than treebenchd's 30s default).
	QueryTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Coordinator is a treebench-coord instance: the same frame server
// treebenchd runs on (so oqlsh -coord points at it unchanged) with a
// handler that plans each statement locally and either scatters it across
// every shard (distributable operators) or routes it whole to one shard
// (the deliberately sequential ones).
type Coordinator struct {
	server.Frames
	cfg Config

	// planMu serializes planning on the shared local session (the planner
	// is not concurrency-safe; planning is cheap and plan-cached).
	planMu sync.Mutex

	snapFlight core.Flight[struct{}, *session.Session]
}

// ErrCoordClosed is what Serve returns after Shutdown: the frame server's
// sentinel under the coordinator's name.
var ErrCoordClosed = server.ErrServerClosed

// New validates cfg and returns an unstarted coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.ShardAddrs) == 0 {
		return nil, fmt.Errorf("dist: at least one shard address is required")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("dist: Config.Source is required")
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 60 * time.Second
	}
	if cfg.Dial.IOTimeout == 0 {
		cfg.Dial.IOTimeout = cfg.QueryTimeout
	}
	co := &Coordinator{cfg: cfg}
	co.Hello = wire.ServerHello{Label: cfg.Label, SnapshotKey: cfg.SnapshotKey}
	co.Open = func(fc *server.Conn) (func(byte, []byte) bool, func()) {
		c := &coordConn{Conn: fc, co: co, shards: make([]*client.Client, len(cfg.ShardAddrs))}
		return c.handle, c.closeShards
	}
	co.Logf = cfg.Logf
	return co, nil
}

// planSession returns the coordinator's local planning session, building it
// from the snapshot source exactly once. Planning charges land on the
// session's private meter, which is never reported — the shards' meters are
// the only accounting a client sees.
func (co *Coordinator) planSession() (*session.Session, error) {
	return co.snapFlight.Do(struct{}{}, func() (*session.Session, error) {
		sn, source, err := co.cfg.Source()
		if err != nil {
			return nil, err
		}
		if err := sn.Engine.PrimeStats(); err != nil {
			return nil, err
		}
		if co.Logf != nil {
			co.Logf("planning snapshot ready (%s)", source)
		}
		return session.NewWith(sn.Fork().DB, session.Config{
			PlanCache: oql.NewPlanCache(0),
		}), nil
	})
}

// Warm eagerly builds the planning snapshot so a misconfigured source fails
// at startup rather than on the first query.
func (co *Coordinator) Warm() error {
	_, err := co.planSession()
	return err
}

// Shards returns the cluster width.
func (co *Coordinator) Shards() int { return len(co.cfg.ShardAddrs) }

// coordConn is one accepted connection plus its lazily dialed shard
// connections. Requests are handled strictly in order; only the
// connection's goroutine (and, during one scatter, its per-shard workers on
// distinct slots) touches the shard slice.
type coordConn struct {
	*server.Conn
	co     *Coordinator
	shards []*client.Client
}

// closeShards is the connection's close hook.
func (c *coordConn) closeShards() {
	for i := range c.shards {
		c.dropShard(i)
	}
}

func (c *coordConn) handle(typ byte, payload []byte) bool {
	switch typ {
	case wire.TypePing:
		return c.Send(wire.TypePong, nil)
	case wire.TypeStatsReq:
		return c.Send(wire.TypeStats, c.co.Stats().Encode())
	case wire.TypeClusterStatsReq:
		return c.clusterStats()
	case wire.TypeQuery:
		q, err := wire.DecodeQuery(payload)
		if err != nil {
			c.SendError(wire.CodeProto, err)
			return false
		}
		return c.query(q)
	default:
		c.SendError(wire.CodeProto, errors.New("unknown frame type"))
		return false
	}
}

// shard returns the connection's client for shard i, dialing (with the
// configured retry/backoff) and verifying the shard's identity and snapshot
// key on first use. Failures come back as *ShardDownError.
func (c *coordConn) shard(i int) (*client.Client, error) {
	if c.shards[i] != nil {
		return c.shards[i], nil
	}
	addr := c.co.cfg.ShardAddrs[i]
	cl, err := client.Dial(addr, c.co.cfg.Dial)
	if err != nil {
		return nil, &ShardDownError{Shard: i, Addr: addr, Err: err}
	}
	idx, cnt := cl.Shard()
	if int(idx) != i || int(cnt) != len(c.co.cfg.ShardAddrs) {
		cl.Close()
		return nil, &ShardDownError{Shard: i, Addr: addr,
			Err: fmt.Errorf("announced shard %d/%d, want %d/%d", idx, cnt, i, len(c.co.cfg.ShardAddrs))}
	}
	if key := c.co.cfg.SnapshotKey; key != "" && cl.SnapshotKey() != "" && cl.SnapshotKey() != key {
		cl.Close()
		return nil, &ShardDownError{Shard: i, Addr: addr,
			Err: fmt.Errorf("snapshot key mismatch: shard serves %.12s…, cluster is %.12s…", cl.SnapshotKey(), key)}
	}
	c.shards[i] = cl
	return cl, nil
}

// dropShard closes and forgets shard i's connection after a transport
// failure, so the next query redials (and the retry/backoff gets a chance
// to find a restarted daemon).
func (c *coordConn) dropShard(i int) {
	if c.shards[i] != nil {
		c.shards[i].Close()
		c.shards[i] = nil
	}
}

// shardFailure converts one shard call's error for the client: server-side
// query errors relay as-is; transport errors become typed shard-down
// failures (and drop the connection for redial).
func (c *coordConn) shardFailure(i int, err error) (byte, error) {
	var se *client.ServerError
	if errors.As(err, &se) {
		return se.Code, err
	}
	c.dropShard(i)
	return wire.CodeShard, &ShardDownError{Shard: i, Addr: c.co.cfg.ShardAddrs[i], Err: err}
}

// query plans one statement locally and either scatters it across every
// shard or routes it whole to one.
func (c *coordConn) query(q *wire.Query) bool {
	co := c.co
	if q.Warm {
		// Distributed execution is cold-only: a warm sequence's numbers
		// depend on one session's private cache history, which has no
		// byte-identical decomposition across shards.
		return c.SendError(wire.CodeQuery, fmt.Errorf("dist: warm queries are not distributable; use a direct shard connection"))
	}
	sess, err := co.planSession()
	if err != nil {
		return c.SendError(wire.CodeQuery, err)
	}
	start := time.Now()
	plan, err := co.plan(sess, q)
	if err != nil {
		co.Metrics.Failed()
		return c.SendError(wire.CodeQuery, err)
	}

	var res *wire.Result
	var code byte
	if Distributable(plan) {
		res, code, err = c.scatter(plan, q)
	} else {
		res, code, err = c.route(q)
	}
	if err != nil {
		co.Metrics.Failed()
		return c.SendError(code, err)
	}
	co.Metrics.Served(plan, time.Since(start), res.Elapsed)
	if max := int(q.MaxRows); len(res.Sample) > max {
		res.Sample = res.Sample[:max]
	}
	return c.Send(wire.TypeResult, res.Encode())
}

// plan compiles the statement on the coordinator's local session under the
// requested strategy. The planner is not concurrency-safe; one lock
// serializes all connections' (cheap, cached) planning.
func (co *Coordinator) plan(sess *session.Session, q *wire.Query) (*oql.Plan, error) {
	co.planMu.Lock()
	defer co.planMu.Unlock()
	if q.Strategy == wire.StrategyHeuristic {
		sess.Planner.Strategy = oql.Heuristic
	} else {
		sess.Planner.Strategy = oql.CostBased
	}
	return sess.Planner.PlanSource(q.Stmt)
}

// route dispatches a non-distributable statement whole to one shard —
// deterministically placed by statement hash, so repeated runs of one
// workload spread while any given query always lands on the same shard —
// and relays the shard's full single-node Result.
func (c *coordConn) route(q *wire.Query) (*wire.Result, byte, error) {
	n := len(c.co.cfg.ShardAddrs)
	h := fnv.New32a()
	h.Write([]byte(q.Stmt))
	target := int(h.Sum32() % uint32(n))
	cl, err := c.shard(target)
	if err != nil {
		return nil, wire.CodeShard, err
	}
	res, err := cl.Query(q.Stmt, client.QueryOptions{
		Heuristic: q.Strategy == wire.StrategyHeuristic,
		MaxRows:   int(q.MaxRows),
	})
	if err != nil {
		code, err := c.shardFailure(target, err)
		return nil, code, err
	}
	return res, 0, nil
}

// scatter fans the statement out to every shard and merges the partials in
// shard-index order. Any shard failure fails the query; the lowest-indexed
// failure wins, so the reported error is deterministic.
func (c *coordConn) scatter(plan *oql.Plan, q *wire.Query) (*wire.Result, byte, error) {
	n := len(c.co.cfg.ShardAddrs)
	parts := make([]*wire.Partial, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := c.shard(i)
			if err != nil {
				errs[i] = err
				return
			}
			parts[i], errs[i] = cl.Scatter(&wire.Scatter{
				Stmt:     q.Stmt,
				Strategy: q.Strategy,
				ShardIdx: uint32(i),
				ShardCnt: uint32(n),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		var sde *ShardDownError
		if errors.As(err, &sde) {
			return nil, wire.CodeShard, err
		}
		code, err := c.shardFailure(i, err)
		return nil, code, err
	}
	sess, err := c.co.planSession()
	if err != nil {
		return nil, wire.CodeQuery, err
	}
	return MergePartials(plan, sess.DB.Meter.Model, parts), 0, nil
}

// MergePartials gathers per-shard partial results into the one Result a
// single node would have produced: rows and meters sum in shard-index order
// (chunk-block concatenation IS chunk order), aggregate states merge then
// finalize, samples concatenate then get the global order-by treatment —
// the sort charge over all matching rows, the stable sort, the hidden
// column strip — exactly once.
func MergePartials(plan *oql.Plan, model sim.CostModel, parts []*wire.Partial) *wire.Result {
	out := &wire.Result{Plan: plan.Explain()}
	var counters sim.Counters
	var elapsed time.Duration
	var aggs []oql.AggPartial
	var sample [][]object.Value
	for i, part := range parts {
		out.Rows += part.Rows
		counters.Add(part.Counters)
		elapsed += part.Elapsed
		cur := make([]oql.AggPartial, len(part.Aggs))
		for j, a := range part.Aggs {
			cur[j] = oql.AggPartial{Agg: oql.Aggregate(a.Agg), Label: a.Label,
				N: a.N, Sum: a.Sum, Min: a.Min, Max: a.Max}
		}
		if i == 0 {
			aggs = cur
		} else {
			aggs = oql.MergeAggPartials(aggs, cur)
		}
		sample = append(sample, part.Sample...)
	}
	// Each shard keeps its first SampleLimit rows — a superset of its
	// contribution to the global first SampleLimit — so the concatenation's
	// prefix matches the single-node sample exactly.
	if len(sample) > oql.SampleLimit {
		sample = sample[:oql.SampleLimit]
	}
	for _, a := range aggs {
		r := a.Finalize()
		out.Aggregates = append(out.Aggregates, wire.Agg{Label: r.Label, Value: r.Value})
	}
	if plan.Kind == oql.PlanSelection && plan.OrderAttr != "" {
		// The sort is charged over ALL matching rows, once, globally — the
		// shards deliberately skipped it (oql.ExecutePartial).
		scratch := sim.NewMeter(model)
		scratch.Sort(out.Rows)
		counters.Add(scratch.Snapshot())
		elapsed += scratch.Elapsed()
		idx := plan.OrderIdx
		sort.SliceStable(sample, func(i, j int) bool {
			if plan.OrderDesc {
				return sample[i][idx].Int > sample[j][idx].Int
			}
			return sample[i][idx].Int < sample[j][idx].Int
		})
		if plan.OrderHidden() {
			for i := range sample {
				sample[i] = sample[i][:len(sample[i])-1]
			}
		}
	}
	out.Elapsed = elapsed
	out.Counters = counters
	out.Sample = sample
	return out
}

// clusterStats answers with the shard map and every shard's Stats snapshot.
// Unreachable shards report Up=false rather than failing the request — the
// stats view is exactly where you look when a shard is down.
func (c *coordConn) clusterStats() bool {
	co := c.co
	msg := &wire.ClusterStats{}
	if sess, err := co.planSession(); err == nil {
		msg.Map = ShardMap(sess.DB, len(co.cfg.ShardAddrs))
	}
	for i, addr := range co.cfg.ShardAddrs {
		st := wire.ShardStat{Idx: uint32(i), Addr: addr}
		if cl, err := c.shard(i); err == nil {
			if s, err := cl.Stats(); err == nil {
				st.Up = true
				st.Stats = s
			} else {
				c.dropShard(i)
			}
		}
		msg.Shards = append(msg.Shards, st)
	}
	return c.Send(wire.TypeClusterStats, msg.Encode())
}

// Stats snapshots the coordinator's own counters (the shards' are behind
// ClusterStats): served and failed queries, plan provenance, and end-to-end
// latencies — wall clock across the whole scatter-gather plus the merged
// simulated time. Sessions reports the cluster width (the coordinator
// itself has no execution slots); SnapshotSource names the role.
func (co *Coordinator) Stats() *wire.Stats {
	st := co.Metrics.Stats()
	st.Sessions = int64(len(co.cfg.ShardAddrs))
	st.ShardCnt = st.Sessions
	st.SnapshotSource = "coordinator"
	return st
}
