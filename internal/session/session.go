// Package session is the single query-execution entry point shared by the
// local shell (cmd/oqlsh) and the query server (internal/server): one
// Execute(stmt) path over one database, plus the one renderer both sides
// use. Local and remote execution of the same statement against the same
// generated database therefore print byte-identical results — the property
// the CI smoke diff pins down.
package session

import (
	"context"
	"fmt"
	"io"

	"treebench/internal/engine"
	"treebench/internal/oql"
	"treebench/internal/wire"
)

// Session executes OQL statements against one database.
type Session struct {
	DB      *engine.Database
	Planner *oql.Planner
	// Cold, when true (the default), cold-restarts the caches before each
	// query — the paper's measurement discipline. A warm session keeps
	// caches and handle table across queries; its simulated numbers then
	// depend on the session's own query history (and nothing else, when
	// the session owns its engine).
	Cold bool
}

// Config carries the optional knobs of a session.
type Config struct {
	// QueryJobs sets the database's intra-query worker count (0 keeps the
	// engine default, min(NumCPU, 4)). Worker count changes wall-clock
	// speed only, never a simulated number.
	QueryJobs int
	// PlanCache, when non-nil, memoizes compiled plans by query source for
	// the session's planner. Plans hold references into the session's
	// database fork, so a cache must not be shared across forks.
	PlanCache *oql.PlanCache
	// IndexBackend selects the pluggable index structure indexes created
	// through this session use ("btree" or "lsm"; empty keeps the
	// database's current kind). Indexes that already exist are unaffected.
	IndexBackend string
}

// New returns a cold session over db using the cost-based strategy.
//
// New primes every index's equi-depth histogram and then cold-restarts, so
// the planner's statistics are in place before the first measured query.
// Without this, the first cold query on a fresh engine would pay the lazy
// statistics build (extra page reads on the meter) and report different
// numbers than the same query repeated — which would break both the
// paper's equal-footing discipline and the remote/local byte-equivalence
// guarantee (a fresh server replica must answer exactly like a fresh local
// shell, however many queries either has served).
func New(db *engine.Database) *Session {
	return NewWith(db, Config{})
}

// NewWith is New with explicit configuration.
func NewWith(db *engine.Database, cfg Config) *Session {
	for _, name := range db.Extents() {
		if e, err := db.Extent(name); err == nil {
			for _, ix := range e.Indexes() {
				ix.Stats(db.Client) // builds and caches; errors fall back to lazy
			}
		}
	}
	db.ColdRestart()
	db.Offline() // an idle session holds no buffer-pool frame back from reuse
	if cfg.QueryJobs != 0 {
		db.SetQueryJobs(cfg.QueryJobs)
	}
	if cfg.IndexBackend != "" {
		// Callers validate the kind at flag-parse time (CheckKind); an
		// invalid value here falls back to the database's current kind
		// rather than failing a constructor that cannot return an error.
		_ = db.SetIndexBackend(cfg.IndexBackend)
	}
	return &Session{
		DB:      db,
		Planner: &oql.Planner{DB: db, Strategy: oql.CostBased, Cache: cfg.PlanCache},
		Cold:    true,
	}
}

// Execute is ExecuteRows with no deadline, materializing up to
// oql.SampleLimit rows.
func (s *Session) Execute(stmt string) (*oql.Result, error) {
	return s.ExecuteRows(context.Background(), stmt, oql.SampleLimit)
}

// ExecuteRows parses, plans and runs one statement, honoring the session's
// cache temperature, and materializes only the first maxRows result rows —
// what a client showing maxRows rows sees (oql.Planner.ExecuteLimit; every
// other number is the same at any maxRows). Warm queries keep the caches
// and handle table but still measure from a zeroed meter, so every result
// reports that query's own cost at the session's cache temperature (not a
// running session total). At ctx's deadline the engine stops at its next
// chunk or batch boundary and the statement returns ctx's error and no
// result; its caches are then mid-query, so treebenchd drops a stopped
// session. However the statement ends — done, failed, stopped or
// panicking — the session and its chunk forks go offline in the buffer
// pool: the result holds decoded values, no page buffer.
func (s *Session) ExecuteRows(ctx context.Context, stmt string, maxRows int) (*oql.Result, error) {
	s.DB.SetContext(ctx)
	defer s.DB.SetContext(context.Background())
	defer s.DB.Offline()
	if s.Cold {
		s.DB.ColdRestart()
	} else {
		s.DB.Meter.Reset()
	}
	plan, err := s.Planner.PlanSource(stmt)
	if err != nil {
		return nil, err
	}
	return s.Planner.ExecuteLimit(plan, maxRows)
}

// ToWire converts an executed result into its neutral wire form, keeping at
// most maxSample materialized rows (the full row count survives in Rows).
func ToWire(res *oql.Result, maxSample int) *wire.Result {
	out := &wire.Result{
		Plan:     res.Plan.Explain(),
		Rows:     int64(res.Rows),
		Elapsed:  res.Elapsed,
		Counters: res.Counters,
	}
	for _, a := range res.Aggregates {
		out.Aggregates = append(out.Aggregates, wire.Agg{Label: a.Label, Value: a.Value})
	}
	n := len(res.Sample)
	if maxSample >= 0 && n > maxSample {
		n = maxSample
	}
	for _, row := range res.Sample[:n] {
		out.Sample = append(out.Sample, row)
	}
	return out
}

// WriteResult renders a result the way the shell always has: plan with its
// costed alternatives, aggregates, up to maxRows sample rows, and the
// rows/elapsed/counters footer. Both oqlsh and the remote client render
// through this function.
func WriteResult(w io.Writer, res *wire.Result, maxRows int) {
	fmt.Fprintln(w, res.Plan)
	for _, a := range res.Aggregates {
		fmt.Fprintf(w, "  %s = %g\n", a.Label, a.Value)
	}
	shown := len(res.Sample)
	if maxRows >= 0 && shown > maxRows {
		shown = maxRows
	}
	for _, row := range res.Sample[:shown] {
		fmt.Fprint(w, "  ")
		for j, v := range row {
			if j > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprint(w, v)
		}
		fmt.Fprintln(w)
	}
	if shown > 0 && res.Rows > int64(shown) {
		fmt.Fprintf(w, "  ... (%d more rows)\n", res.Rows-int64(shown))
	}
	n := res.Counters
	fmt.Fprintf(w, "%d rows in %.2fs simulated (pages read %d, RPCs %d, client miss %.0f%%)\n",
		res.Rows, res.Elapsed.Seconds(), n.DiskReads, n.RPCs, n.ClientMissRate())
}
