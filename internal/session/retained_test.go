package session

import (
	"fmt"
	"strings"
	"testing"

	"treebench/internal/derby"
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

// TestColdQueryAllocBudget is the allocation budget of the analytic path:
// on a long-lived session, the second cold run of each analytic statement
// shape (the first builds chunk forks, cache slabs and the plan) stays
// under a fixed number of heap objects. The budgets are ~2× what the
// shapes cost on Derby 200×100 today (39, 99, 140, 62, 232, 225 — the joins'
// remainder is one decoded name string per provider) and 4–60× under
// what they cost with one object per admitted page, per sampled row and
// per chunk cache (2 291, 2 399, 8 399, 2 327, 1 722, 9 055) — so the next
// per-page or per-row make fails here, not in a benchmark.
func TestColdQueryAllocBudget(t *testing.T) {
	sn := chunkedSnapshot(t)
	budget := map[string]float64{"count": 100, "agg": 200, "orderby": 300, "range": 150, "phj": 500, "nl": 500}
	s := coldSession(sn)
	for _, q := range coldQueryStatements(chunkedProviders, chunkedAvg) {
		run := func() {
			if _, err := s.Execute(q.stmt); err != nil {
				t.Fatalf("%s: %v", q.stmt, err)
			}
		}
		run()
		if got := testing.AllocsPerRun(3, run); got > budget[q.name] {
			t.Errorf("%s: a cold run allocated %v objects, budget %v (%s)", q.name, got, budget[q.name], q.stmt)
		}
	}
}
