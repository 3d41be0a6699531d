// Package server implements treebenchd: a TCP query server over the
// simulated engine. The paper measured O2 as a client–server ODBMS; this
// package restores that boundary so multi-client workloads (OCB-style
// contention, warm/cold cache dynamics) can be benchmarked against one
// daemon.
//
// Architecture:
//
//   - Each accepted connection is one session. A session speaks the
//     internal/wire protocol: Hello handshake, then Query, Commit, Ping and
//     StatsReq requests answered in order. The listener, the handshake,
//     the request loop and the drain are in frame.go; conn.handle
//     (conn.go) is what a request means.
//   - The database is generated exactly once (singleflight) and frozen
//     into an immutable engine snapshot. Each connection's queries run on
//     a private session forked from that snapshot in O(1): fresh caches,
//     meter and handle table over the one shared page image. N sessions
//     therefore cost one generation and one copy of the data, not N.
//   - Admission control bounds concurrently executing requests at
//     Sessions, queues at most MaxQueue waiters, and rejects beyond
//     that; every request gets a wall-clock budget of QueryTimeout covering
//     queue wait and execution. Query and Commit both take the one
//     admit → execute → answer path in conn.run. A request starts no
//     goroutine: it runs on its connection's under a context with the
//     deadline, which the engine checks before each chunk, at each batch
//     and per outer row of a handle-at-a-time join, and the chain store
//     checks before a commit reaches the WAL. A stopped request frees its
//     slot as it answers CodeTimeout; a stopped commit leaves no version.
//   - Cold queries (the default) cold-restart the session first, so every
//     result is byte-identical to a local oqlsh run. A session's first
//     warm query also starts from a cold restart: the warm sequence is
//     then a deterministic function of the connection's own query history
//     — forked sessions share no meter or cache state.
//   - Shutdown drains gracefully: the listener closes, idle sessions are
//     woken and answer CodeShutdown on their way out, in-flight queries
//     finish and flush their responses.
package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"treebench/internal/bufpool"
	"treebench/internal/core"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/persist"
	"treebench/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Source produces the frozen database snapshot plus a provenance
	// label ("generated", or "cache (path)" when loaded from a persisted
	// snapshot; see SnapshotSource). It runs exactly once; every session
	// forks from the result. Required unless Store is set.
	Source func() (*derby.Snapshot, string, error)
	// Store, when non-nil, makes the server writable: queries fork from
	// the MVCC chain's current head instead of one frozen snapshot, and
	// Commit frames apply+durably log the next update wave through it.
	// Supersedes Source. A nil Store rejects commits with CodeReadOnly.
	Store *persist.ChainStore
	// Label names the served database in the handshake.
	Label string
	// Sessions bounds concurrently executing queries (the admission
	// width); 0 means core.DefaultJobs(), min(NumCPU, 8).
	Sessions int
	// MaxQueue bounds queries waiting for an admission slot; beyond it
	// queries are rejected immediately with CodeBusy. 0 means no queue.
	MaxQueue int
	// QueryJobs is the intra-query worker count each session runs with
	// (0 means the engine default, min(NumCPU, 4)). Parallelism inside a
	// query changes wall-clock latency only; every simulated number stays
	// byte-identical.
	QueryJobs int
	// QueryTimeout is each query's wall-clock budget, covering queue wait
	// and execution; 0 means 30 seconds.
	QueryTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Server is a treebenchd instance: the frame server plus the query handler.
type Server struct {
	cfg     Config
	sem     chan struct{}
	waiters atomic.Int64
	// metrics counts connections and what their requests cost.
	metrics Metrics

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	drained chan struct{} // made as the drain begins, closed as the last connection goes

	// snapFlight generates-and-freezes the database exactly once, however
	// many sessions race to first use — the same singleflight discipline
	// the experiment scheduler uses for its datasets.
	snapFlight core.Flight[struct{}, *derby.Snapshot]
	// snap publishes the generated snapshot for Stats (nil until then);
	// snapSource publishes its provenance alongside.
	snap       atomic.Pointer[derby.Snapshot]
	snapSource atomic.Pointer[string]

	// beforeExecute, when non-nil, runs after admission with the request's
	// context, before the engine is invoked (test instrumentation for
	// admission, deadline and drain behavior).
	beforeExecute func(ctx context.Context)
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil && cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Source or Config.Store is required")
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = core.DefaultJobs()
	}
	if cfg.Sessions < 1 {
		return nil, fmt.Errorf("server: sessions %d < 1", cfg.Sessions)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("server: max queue %d < 0", cfg.MaxQueue)
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 30 * time.Second
	}
	return &Server{cfg: cfg, sem: make(chan struct{}, cfg.Sessions)}, nil
}

// snapshot returns the shared database snapshot, generating and freezing
// it on first use. Priming the planner statistics here (once, on the
// snapshot) saves every forked session the lazy ANALYZE scan session.New
// would otherwise pay — without changing any reported number.
func (s *Server) snapshot() (*derby.Snapshot, error) {
	if s.cfg.Store != nil {
		// Store mode: every call reads the chain's current head, so a
		// session forked after a commit sees the new version while earlier
		// forks keep reading the version they forked — holding it is what
		// keeps it alive. Heads arrive primed: the store primes its root
		// at open and Publish primes each version the writer creates.
		sn := s.cfg.Store.Head()
		source := "chain"
		s.snapSource.Store(&source)
		s.snap.Store(sn)
		return sn, nil
	}
	return s.snapFlight.Do(struct{}{}, func() (*derby.Snapshot, error) {
		sn, source, err := s.cfg.Source()
		if err != nil {
			return nil, err
		}
		// Snapshots arrive unprimed whichever path produced them (the
		// cache stores them straight after Freeze); prime once here.
		if err := sn.Engine.PrimeStats(); err != nil {
			return nil, err
		}
		s.snapSource.Store(&source)
		s.snap.Store(sn)
		return sn, nil
	})
}

// Warm eagerly generates the snapshot so a misconfigured generator fails
// at startup rather than on the first query.
func (s *Server) Warm() error {
	_, err := s.snapshot()
	return err
}

// Stats snapshots the server's counters. Snapshot memory is reported once
// the database has been generated (zero before).
func (s *Server) Stats() *wire.Stats {
	st := s.metrics.Stats()
	st.QueueDepth = s.waiters.Load()
	st.Sessions = int64(s.cfg.Sessions)
	st.BusySessions = int64(len(s.sem))
	if sn := s.snap.Load(); sn != nil {
		st.SnapshotPages = int64(sn.Engine.Pages())
		st.SnapshotBytes = sn.Engine.Bytes()
		st.IndexBackend = sn.Engine.IndexBackend()
		if p := s.snapSource.Load(); p != nil {
			st.SnapshotSource = *p
		}
	}
	st.BatchSize = engine.DefaultBatch
	if s.cfg.Store != nil {
		cs := s.cfg.Store.Stats()
		st.HeadVersion = int64(cs.HeadVersion)
		st.BaseVersion = int64(cs.BaseVersion)
		st.Versions = int64(cs.Versions)
		st.Commits = int64(cs.Commits)
		st.Compactions = int64(cs.Compactions)
		st.WalRecords = int64(cs.Wal.Records)
		st.WalBytes = int64(cs.Wal.Bytes)
		st.WalSyncs = int64(cs.Wal.Syncs)
		st.WalTail = cs.WalTail
	}
	ps := bufpool.Active().Stats()
	st.PoolHits = ps.Hits
	st.PoolMisses = ps.Misses
	st.PoolEvictions = ps.Evictions
	st.PoolReadaheadIssued = ps.ReadaheadIssued
	st.PoolReadaheadUsed = ps.ReadaheadUsed
	st.PoolReadaheadWasted = ps.ReadaheadWasted
	st.PoolAdopted = ps.Adopted
	st.PoolDropped = ps.Dropped
	st.PoolRecycled = ps.Recycled
	st.PoolResidentPages = ps.ResidentPages
	st.PoolCapacityPages = ps.CapacityPages
	return st
}

// admit acquires an admission slot before ctx's deadline; the caller
// releases it with <-s.sem. It returns a wire error code on failure:
// CodeBusy when the bounded queue is full, and CodeTimeout when the
// request's budget expired while queued.
func (s *Server) admit(ctx context.Context) (code byte, err error) {
	select {
	case s.sem <- struct{}{}:
		return 0, nil
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiters.Add(-1)
		s.metrics.rejected.Add(1)
		return wire.CodeBusy, fmt.Errorf("server: admission queue full (%d executing, %d queued)",
			s.cfg.Sessions, s.cfg.MaxQueue)
	}
	defer s.waiters.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return 0, nil
	case <-ctx.Done():
		s.metrics.timedOut.Add(1)
		return wire.CodeTimeout, fmt.Errorf("server: query timed out after %s in admission queue", s.cfg.QueryTimeout)
	}
}
