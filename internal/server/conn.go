package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/oql"
	"treebench/internal/session"
	"treebench/internal/wire"
)

// conn is one accepted connection and its protocol state.
type conn struct {
	srv *Server
	c   net.Conn
	bw  *bufio.Writer

	// sess is the connection's engine session, forked lazily from the
	// shared snapshot on the first query. warmed reports whether the
	// session's caches are in the state the connection's own warm queries
	// left them (a cold query or a timeout invalidates that). Only the
	// connection's goroutine touches either.
	sess   *session.Session
	warmed bool
	// spare is the operator scratch of the session a commit dropped,
	// kept for the session the connection forks next.
	spare *engine.Scratch
}

// handle dispatches one request, reporting whether the session survives it.
func (c *conn) handle(typ byte, payload []byte) bool {
	switch typ {
	case wire.TypePing:
		return c.send(wire.TypePong, nil)
	case wire.TypeStatsReq:
		return c.send(wire.TypeStats, c.srv.Stats().Encode())
	case wire.TypeQuery:
		q, err := wire.DecodeQuery(payload)
		if err != nil {
			c.sendError(wire.CodeProto, err)
			return false
		}
		return c.query(q)
	case wire.TypeCommit:
		if len(payload) != 0 {
			c.sendError(wire.CodeProto, errors.New("commit payload must be empty"))
			return false
		}
		return c.commit()
	default:
		c.sendError(wire.CodeProto, errors.New("unknown frame type"))
		return false
	}
}

// session returns the connection's engine session, forking it from the
// shared snapshot on first use. The fork is O(1); generation (if nobody
// triggered it yet) is singleflight across all connections.
func (c *conn) session() (*session.Session, error) {
	if c.sess != nil {
		return c.sess, nil
	}
	sn, err := c.srv.snapshot()
	if err != nil {
		return nil, err
	}
	// The plan cache is per session: plans hold references into the
	// session's database fork. Hit/miss deltas roll up into the server's
	// metrics after each query.
	db := sn.Fork().DB
	db.SwapScratch(c.spare)
	c.sess = session.NewWith(db, session.Config{
		QueryJobs: c.srv.cfg.QueryJobs,
		PlanCache: oql.NewPlanCache(0),
	})
	c.warmed, c.spare = false, nil
	return c.sess, nil
}

// run is the one path of every request that occupies an admission slot:
// admit within the request's QueryTimeout deadline, then run exec on this
// goroutine under the same deadline, which the engine and the chain store
// honour, and free the slot before the caller answers. A refused admission
// returns its wire code and exec does not run; otherwise code is 0.
func (c *conn) run(exec func(ctx context.Context) error) (code byte, err error) {
	s := c.srv
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.QueryTimeout)
	defer cancel()
	if code, err := s.admit(ctx); err != nil {
		return code, err
	}
	defer func() { <-s.sem }()
	if s.beforeExecute != nil {
		s.beforeExecute(ctx)
	}
	return 0, exec(ctx)
}

// fail answers a request run refused or whose execution failed. One its
// deadline stopped answers CodeTimeout and drops the session it left
// mid-query, so the connection's next request forks a fresh one.
func (c *conn) fail(code byte, err error) bool {
	switch {
	case code != 0:
		return c.sendError(code, err)
	case errors.Is(err, context.DeadlineExceeded):
		c.sess = nil
		c.warmed = false
		c.srv.metrics.timedOut.Add(1)
		return c.sendError(wire.CodeTimeout, fmt.Errorf("server: query exceeded its %s budget", c.srv.cfg.QueryTimeout))
	default:
		return c.sendError(wire.CodeQuery, err)
	}
}

// measure runs one statement's execution on sess under the requested
// optimizer strategy and records what it cost: both latencies, the plan's
// provenance, and what it added to the session's plan-cache and
// index-backend counters (a stopped statement counts as a timeout, in fail).
func (s *Server) measure(sess *session.Session, strategy byte, exec func() (*oql.Result, error)) (*oql.Result, error) {
	start := time.Now()
	sess.Planner.Strategy = oql.CostBased
	if strategy == wire.StrategyHeuristic {
		sess.Planner.Strategy = oql.Heuristic
	}
	hits0, misses0 := sess.Planner.Cache.Stats()
	backend0 := sess.DB.BackendCounters()
	res, err := exec()
	hits, misses := sess.Planner.Cache.Stats()
	backend := sess.DB.BackendCounters()
	s.metrics.recordDeltas(hits-hits0, misses-misses0, index.BackendCounters{
		BloomHits:    backend.BloomHits - backend0.BloomHits,
		BloomMisses:  backend.BloomMisses - backend0.BloomMisses,
		SSTablesRead: backend.SSTablesRead - backend0.SSTablesRead,
		Compactions:  backend.Compactions - backend0.Compactions,
		PagesWritten: backend.PagesWritten - backend0.PagesWritten,
	})
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			s.metrics.Failed()
		}
		return nil, err
	}
	s.metrics.Served(res.Plan, time.Since(start), res.Elapsed)
	return res, nil
}

// query executes and answers one Query request.
func (c *conn) query(q *wire.Query) bool {
	s := c.srv
	sess, err := c.session()
	if err != nil {
		s.metrics.rejected.Add(1)
		return c.sendError(wire.CodeBusy, err)
	}
	// A connection's first warm query starts from a cold restart: the warm
	// sequence is then a deterministic function of the connection's own
	// queries. Later warm queries keep whatever its earlier ones cached; a
	// cold query in between restarts the discipline.
	if q.Warm && !c.warmed {
		sess.DB.ColdRestart()
	}
	c.warmed = q.Warm
	var res *oql.Result
	code, err := c.run(func(ctx context.Context) (err error) {
		sess.Cold = !q.Warm
		res, err = s.measure(sess, q.Strategy, func() (*oql.Result, error) {
			return sess.ExecuteRows(ctx, q.Stmt, int(q.MaxRows))
		})
		return err
	})
	if err != nil {
		return c.fail(code, err)
	}
	return c.send(wire.TypeResult, session.ToWire(res, int(q.MaxRows)).Encode())
}

// commit applies and durably logs the next update wave on the chain store,
// then answers with the new version's lineage. Commits go through the same
// admission gate as queries (a commit occupies one slot) but are not
// recorded in the query latency metrics — the chain store keeps its own
// counters, surfaced through Stats. A commit its deadline stopped left no
// version: the store checks the deadline before the record reaches the WAL.
func (c *conn) commit() bool {
	s := c.srv
	if s.cfg.Store == nil {
		return c.sendError(wire.CodeReadOnly, errors.New("server: read-only: no WAL-backed chain store configured"))
	}
	var (
		wave *derby.WaveReport
		sn   *derby.Snapshot
		wall time.Duration
	)
	code, err := c.run(func(ctx context.Context) (err error) {
		start := time.Now()
		wave, sn, err = s.cfg.Store.UpdateContext(ctx)
		wall = time.Since(start)
		return err
	})
	if err != nil {
		return c.fail(code, err)
	}
	// Clone zeroes backend counters, so the new head carries exactly this
	// wave's flushes, compactions and probes.
	s.metrics.recordDeltas(0, 0, sn.Engine.BackendCounters())
	// Drop the cached session so this connection's next query forks from
	// the head it just committed. Other connections keep the version they
	// forked, which their reference holds — that is the MVCC contract.
	// The next session takes over this one's operator scratch.
	if c.sess != nil {
		c.spare = c.sess.DB.SwapScratch(nil)
	}
	c.sess = nil
	c.warmed = false
	return c.send(wire.TypeCommitResult, (&wire.CommitResult{
		Version:    sn.Engine.Version(),
		Wave:       wave.Wave,
		Reassigned: int64(wave.Reassigned),
		Scalars:    int64(wave.Scalars),
		Evolved:    wave.Evolved,
		Upgraded:   int64(wave.Upgraded),
		Relocated:  int64(wave.Relocated),
		DeltaPages: int64(sn.Engine.DeltaPages()),
		WalOff:     sn.Engine.WalOff(),
		WallUs:     wall.Microseconds(),
	}).Encode())
}
