package server

import (
	"errors"
	"fmt"
	"time"

	"treebench/internal/index"
	"treebench/internal/oql"
	"treebench/internal/session"
	"treebench/internal/wire"
)

// conn is one connection's protocol state over the frame server's Conn.
type conn struct {
	*Conn
	srv *Server

	// sess is the connection's engine session, forked lazily from the
	// shared snapshot on the first query. warmed reports whether the
	// session's caches are in the state the connection's own warm queries
	// left them (a cold query or a timeout invalidates that). Only the
	// connection's goroutine touches either.
	sess   *session.Session
	warmed bool
}

// reply is the answer frame one execution produced.
type reply struct {
	typ     byte
	payload []byte
}

func errorReply(code byte, err error) reply {
	return reply{wire.TypeError, (&wire.Error{Code: code, Msg: err.Error()}).Encode()}
}

// handle dispatches one request, reporting whether the session survives it.
func (c *conn) handle(typ byte, payload []byte) bool {
	switch typ {
	case wire.TypePing:
		return c.Send(wire.TypePong, nil)
	case wire.TypeStatsReq:
		return c.Send(wire.TypeStats, c.srv.Stats().Encode())
	case wire.TypeQuery:
		q, err := wire.DecodeQuery(payload)
		if err != nil {
			c.SendError(wire.CodeProto, err)
			return false
		}
		return c.query(q)
	case wire.TypeScatter:
		sc, err := wire.DecodeScatter(payload)
		if err != nil {
			c.SendError(wire.CodeProto, err)
			return false
		}
		return c.scatter(sc)
	case wire.TypeCommit:
		if len(payload) != 0 {
			c.SendError(wire.CodeProto, errors.New("commit payload must be empty"))
			return false
		}
		return c.commit()
	default:
		c.SendError(wire.CodeProto, errors.New("unknown frame type"))
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
	c.sess = session.NewWith(sn.Fork().DB, session.Config{
		QueryJobs: c.srv.cfg.QueryJobs,
		PlanCache: oql.NewPlanCache(0),
	})
	c.warmed = false
	return c.sess, nil
}

// run is the one path of every request that occupies an admission slot:
// admit within the deadline, execute on a goroutine of its own, and return
// the reply to send — exec's, or an error reply when admission failed or
// the deadline passed first.
func (c *conn) run(deadline time.Time, exec func() reply) reply {
	s := c.srv
	release, code, err := s.admit(deadline)
	if err != nil {
		return errorReply(code, err)
	}
	done := make(chan reply, 1)
	s.execWg.Add(1)
	s.busy.Add(1)
	go func() {
		defer s.execWg.Done()
		defer s.busy.Add(-1)
		if s.beforeExecute != nil {
			s.beforeExecute()
		}
		done <- exec()
	}()

	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case rep := <-done:
		release()
		return rep
	case <-t.C:
		// The engine cannot be interrupted mid-request: answer the client
		// now and abandon the session to the stray execution — the next
		// query forks a fresh one (cheap, thanks to the snapshot), so the
		// connection never observes the abandoned run's cache state. A
		// reaper frees the admission slot when the execution finishes. (An
		// abandoned commit still completes durably — the store serializes
		// it; only this client stops waiting.)
		c.sess = nil
		c.warmed = false
		s.Metrics.timeout()
		s.execWg.Add(1)
		go func() {
			defer s.execWg.Done()
			<-done
			release()
		}()
		return errorReply(wire.CodeTimeout,
			fmt.Errorf("server: query exceeded its %s budget", s.cfg.QueryTimeout))
	}
}

// measure runs one statement's execution on sess under the requested
// optimizer strategy and records what it cost: both latencies, the plan's
// provenance, and what it added to the session's plan-cache and
// index-backend counters.
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
	s.Metrics.recordDeltas(hits-hits0, misses-misses0, index.BackendCounters{
		BloomHits:    backend.BloomHits - backend0.BloomHits,
		BloomMisses:  backend.BloomMisses - backend0.BloomMisses,
		SSTablesRead: backend.SSTablesRead - backend0.SSTablesRead,
		Compactions:  backend.Compactions - backend0.Compactions,
		PagesWritten: backend.PagesWritten - backend0.PagesWritten,
	})
	if err != nil {
		s.Metrics.Failed()
		return nil, err
	}
	s.Metrics.Served(res.Plan, time.Since(start), res.Elapsed)
	return res, nil
}

// query executes and answers one Query request.
func (c *conn) query(q *wire.Query) bool {
	s := c.srv
	deadline := time.Now().Add(s.cfg.QueryTimeout)
	sess, err := c.session()
	if err != nil {
		s.Metrics.reject()
		return c.SendError(wire.CodeBusy, err)
	}
	// A connection's first warm query starts from a cold restart: the warm
	// sequence is then a deterministic function of the connection's own
	// queries. Later warm queries keep whatever its earlier ones cached; a
	// cold query in between restarts the discipline.
	if q.Warm && !c.warmed {
		sess.DB.ColdRestart()
	}
	c.warmed = q.Warm
	rep := c.run(deadline, func() reply {
		sess.Cold = !q.Warm
		res, err := s.measure(sess, q.Strategy, func() (*oql.Result, error) { return sess.Execute(q.Stmt) })
		if err != nil {
			return errorReply(wire.CodeQuery, err)
		}
		return reply{wire.TypeResult, session.ToWire(res, int(q.MaxRows)).Encode()}
	})
	return c.Send(rep.typ, rep.payload)
}

// scatter executes and answers one shard-slice request. The slice always
// runs cold under the chunk-ownership mask (ExecutePartial installs and
// clears it around exactly this execution), so an interleaved plain Query
// on the same connection still sees single-node behavior.
func (c *conn) scatter(sc *wire.Scatter) bool {
	s := c.srv
	if int(sc.ShardIdx) != s.cfg.ShardIdx || int(sc.ShardCnt) != s.cfg.ShardCnt {
		return c.SendError(wire.CodeShard, fmt.Errorf("server: scatter addressed to shard %d/%d but this is shard %d/%d",
			sc.ShardIdx, sc.ShardCnt, s.cfg.ShardIdx, s.cfg.ShardCnt))
	}
	deadline := time.Now().Add(s.cfg.QueryTimeout)
	sess, err := c.session()
	if err != nil {
		s.Metrics.reject()
		return c.SendError(wire.CodeBusy, err)
	}
	// A scatter cold-restarts, which invalidates any warm sequence the
	// connection had going.
	c.warmed = false
	rep := c.run(deadline, func() reply {
		res, err := s.measure(sess, sc.Strategy, func() (*oql.Result, error) {
			return sess.ExecutePartial(sc.Stmt, int(sc.ShardIdx), int(sc.ShardCnt))
		})
		if err != nil {
			return errorReply(wire.CodeQuery, err)
		}
		return reply{wire.TypePartial, session.ToPartial(res).Encode()}
	})
	return c.Send(rep.typ, rep.payload)
}

// commit applies and durably logs the next update wave on the chain store,
// then answers with the new version's lineage. Commits go through the same
// admission gate as queries (a commit occupies one slot) but are not
// recorded in the query latency metrics — the chain store keeps its own
// counters, surfaced through Stats.
func (c *conn) commit() bool {
	s := c.srv
	if s.cfg.Store == nil {
		return c.SendError(wire.CodeReadOnly, errors.New("server: read-only: no WAL-backed chain store configured"))
	}
	rep := c.run(time.Now().Add(s.cfg.QueryTimeout), func() reply {
		start := time.Now()
		wave, sn, err := s.cfg.Store.Update()
		if err != nil {
			return errorReply(wire.CodeQuery, err)
		}
		// Clone zeroes backend counters, so the new head carries exactly
		// this wave's flushes, compactions and probes.
		s.Metrics.recordDeltas(0, 0, sn.Engine.BackendCounters())
		return reply{wire.TypeCommitResult, (&wire.CommitResult{
			Version:    sn.Engine.Version(),
			Wave:       wave.Wave,
			Reassigned: int64(wave.Reassigned),
			Scalars:    int64(wave.Scalars),
			Evolved:    wave.Evolved,
			Upgraded:   int64(wave.Upgraded),
			Relocated:  int64(wave.Relocated),
			DeltaPages: int64(sn.Engine.DeltaPages()),
			WalOff:     sn.Engine.WalOff(),
			WallUs:     time.Since(start).Microseconds(),
		}).Encode()}
	})
	if rep.typ == wire.TypeCommitResult {
		// Drop the cached session so this connection's next query forks
		// from the head it just committed. Other connections keep the
		// version they pinned — that is the MVCC contract.
		c.sess = nil
		c.warmed = false
	}
	return c.Send(rep.typ, rep.payload)
}
