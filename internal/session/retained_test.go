package session

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/join"
)

// exact renders one execution with everything a retained fork could leak
// into: the rendered table, and the unrounded elapsed time and counters.
func exact(t *testing.T, s *Session, stmt string) string {
	t.Helper()
	res, err := s.Execute(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	var out strings.Builder
	WriteResult(&out, ToWire(res, 10), 10)
	fmt.Fprintf(&out, "%d ns %+v\n", res.Elapsed, res.Counters)
	return out.String()
}

// chunkedProviders × chunkedAvg is a Derby database whose scans fan out
// over chunk forks (the scale of TestQueryParallelDeterministic).
const chunkedProviders, chunkedAvg = 200, 100

func chunkedSnapshot(t *testing.T) *derby.Snapshot {
	t.Helper()
	d, err := derby.Generate(derby.DefaultConfig(chunkedProviders, chunkedAvg, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestRetainedForksMatchFreshSession pins that chunk forks kept across
// ColdRestart carry nothing over. One long-lived session runs episodes —
// a cold statement, then warm ones that build on its caches — back to
// back, so every cold statement lands on forks earlier episodes filled;
// the oracle runs each episode on a session forked fresh from the
// snapshot, whose chunk forks have never run anything. Rendered tables,
// elapsed time and counters must be identical, at every worker count.
func TestRetainedForksMatchFreshSession(t *testing.T) {
	sn := chunkedSnapshot(t)
	// Episode e starts cold at statement e and continues warm through the
	// rest of the rotation, so each statement shape is seen cold after
	// every other shape and warm after every other shape.
	n := len(parallelStatements)
	episode := func(s *Session, e int) string {
		var out strings.Builder
		for k := 0; k < n; k++ {
			s.Cold = k == 0
			out.WriteString(exact(t, s, parallelStatements[(e+k)%n]))
		}
		return out.String()
	}
	for _, jobs := range []int{1, 2, 4} {
		long := New(sn.Fork().DB)
		long.DB.SetQueryJobs(jobs)
		for e := 0; e < 2*n; e++ {
			fresh := New(sn.Fork().DB)
			fresh.DB.SetQueryJobs(jobs)
			if got, want := episode(long, e), episode(fresh, e); got != want {
				t.Fatalf("qj=%d episode %d: long-lived session diverged from a fresh fork\n%s", jobs, e, firstDiff(got, want))
			}
		}
	}
}

// TestRetainedForksFollowWrites is the same property on a mutable fork,
// where the parent's catalog changes under the retained chunk forks: an
// update wave and a new index land between two cold chunked runs, and the
// second run must match a session forked from the published result of
// that write — which pins that a reused fork is re-bound to the parent's
// current catalog, not the one it was created under.
func TestRetainedForksFollowWrites(t *testing.T) {
	sn := chunkedSnapshot(t)
	run := func(s *Session) string {
		var out strings.Builder
		for _, stmt := range parallelStatements {
			out.WriteString(exact(t, s, stmt))
		}
		return out.String()
	}
	d := sn.ForkMutable()
	before := run(New(d.DB)) // creates the chunk forks
	// Wave 4 is a schema-growth wave on top of the reassignments and the
	// index updates every wave makes.
	if _, err := derby.ApplyWave(d, 4, derby.DefaultWaveSpec()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.DB.CreateIndex(d.Patients, "age", false); err != nil {
		t.Fatal(err)
	}
	got := run(New(d.DB)) // re-primes the statistics the write invalidated
	es, _, err := d.DB.Publish()
	if err != nil {
		t.Fatal(err)
	}
	want := run(New(sn.WithEngine(es).Fork().DB))
	if got != want {
		t.Fatalf("retained forks diverged from a fork taken after the write\n%s", firstDiff(got, want))
	}
	if got == before {
		t.Fatal("the write changed nothing the statements can see; the test is vacuous")
	}
}

// TestColdQueryAllocBudget is the allocation budget of the query path: on
// a long-lived session, the second cold run of each statement class (the
// first builds chunk forks, cache slabs, the plan and the sessions'
// operator scratch), executed for a client that shows 10 rows as the
// daemon executes it, stays under a fixed number of heap objects and
// kilobytes. The budgets are 1.25× what the classes cost on Derby 200×100
// at 4 workers today (23, 61, 66, 32, 53, 42, 42 objects; 1.9, 3.3, 18.5,
// 4.5, 9.9, 3.8, 4.6 kB). Before operators borrowed their batch, columns
// and scan buffers from the session (engine.Session.Borrow) each class
// cost 59–664 kB; materializing every row up to SampleLimit and decoding
// every projected value costs orderby 1 679 kB, range 549 kB and point
// 569 objects, and decoding each provider's name costs phj 251 objects —
// so the next per-query buffer, per-row make or decode fails here, not in
// a benchmark. A last row runs the point statement on a new session: its
// second run must already find the scratch the first one left.
func TestColdQueryAllocBudget(t *testing.T) {
	sn := chunkedSnapshot(t)
	budget := map[string]struct{ objects, kb float64 }{
		"count": {29, 2.4}, "agg": {76, 4.2}, "orderby": {83, 23.1}, "range": {40, 5.6},
		"phj": {67, 12.4}, "nl": {53, 4.7}, "point": {53, 5.8},
	}
	s := coldSession(sn)
	s.DB.SetQueryJobs(4) // the default's ceiling: chunk workers allocate, so pin them
	var point string
	for _, q := range coldQueryStatements(chunkedProviders, chunkedAvg) {
		run := func() {
			res, err := s.ExecuteRows(context.Background(), q.stmt, 10)
			if err != nil {
				t.Fatalf("%s: %v", q.stmt, err)
			}
			_ = ToWire(res, 10)
		}
		run()
		objects, bytes := allocsPerRun(5, run)
		if b := budget[q.name]; objects > b.objects || bytes/1024 > b.kb {
			t.Errorf("%s: a cold run allocated %.0f objects and %.1f kB, budget %.0f and %.1f kB (%s)",
				q.name, objects, bytes/1024, b.objects, b.kb, q.stmt)
		}
		if q.name == "point" {
			point = q.stmt
		}
	}

	// The daemon's first two queries on a new connection: the first forks
	// the session, plans and lends the scratch; the second is as cheap as
	// any later one.
	const secondRunKB = 8
	fresh := coldSession(sn)
	run := func() {
		if _, err := fresh.ExecuteRows(context.Background(), point, 10); err != nil {
			t.Fatalf("%s: %v", point, err)
		}
	}
	run()
	if _, bytes := allocsPerRun(1, run); bytes/1024 > secondRunKB {
		t.Errorf("point: the second run on a new session allocated %.1f kB, budget %d kB (%s)", bytes/1024, secondRunKB, point)
	}
}

// TestStatementsEndHoldingNoRecord: a warm session keeps its handle table
// across statements, and a statement's end takes the session offline in
// the buffer pool only while that table holds no handle (each handle
// holds its record, a page buffer). Every statement class, and every join
// algorithm, must therefore end with the table empty — or a warm
// connection would hold back frame reuse for good.
func TestStatementsEndHoldingNoRecord(t *testing.T) {
	sn := chunkedSnapshot(t)
	s := coldSession(sn)
	s.Cold = false
	stmts := append([]string(nil), batchStatements...)
	for _, q := range coldQueryStatements(chunkedProviders, chunkedAvg) {
		stmts = append(stmts, q.stmt)
	}
	for _, stmt := range stmts {
		if _, err := s.ExecuteRows(context.Background(), stmt, 10); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if n := s.DB.Handles.Live(); n != 0 {
			t.Errorf("%s: %d handles live at the statement's end", stmt, n)
		}
	}
	for _, algo := range []join.Algorithm{join.NL, join.PHJ, join.CHJ, join.SMJ, join.NOJOIN, join.VNOJOIN, join.HHJ} {
		f := sn.Fork()
		f.DB.ColdRestart()
		env := join.EnvForDerby(f)
		if _, err := join.Run(env, algo, env.BySelectivity(10, 20)); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if n := f.DB.Handles.Live(); n != 0 {
			t.Errorf("%s: %d handles live at the join's end", algo, n)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the heap
// objects and bytes one call of f allocates, averaged over runs calls.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
