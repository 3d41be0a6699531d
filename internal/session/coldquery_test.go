package session

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/oql"
	"treebench/internal/persist"
)

// coldQueryStatements returns the six statement classes of the live
// benchmark's `analytic` workload (bench/workload.go, analyticStatements)
// for a providers×avg Derby database, one literal from the middle of each
// class's band, then the row selection of its `point` workload.
func coldQueryStatements(providers, avg int) []struct{ name, stmt string } {
	n := providers * avg
	join := func(k int) string {
		return fmt.Sprintf("select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < %d and p.upin < %d", k, providers*9/10)
	}
	return []struct{ name, stmt string }{
		{"count", "select count(*) from pa in Patients"},
		{"agg", "select avg(pa.age), min(pa.age), max(pa.age) from pa in Patients where pa.age < 80"},
		{"orderby", "select pa.mrn from pa in Patients where pa.age < 30 order by pa.age"},
		{"range", fmt.Sprintf("select pa.mrn, pa.age from pa in Patients where pa.mrn < %d", n/10)},
		{"phj", join(n / 2)},
		{"nl", join(n * 95 / 100)},
		{"point", "select pa.name, pa.age from pa in Patients where pa.mrn < 500"},
	}
}

// coldSession forks one connection's worth of session from sn, configured
// the way the daemon configures it.
func coldSession(sn *derby.Snapshot) *Session {
	return NewWith(sn.Fork().DB, Config{PlanCache: oql.NewPlanCache(0)})
}

// BenchmarkColdQuery prices one cold execution of each statement class on a
// long-lived session, as a daemon connection runs it for a client that
// shows 10 rows (ExecuteRows, then ToWire): the
// database is the live benchmark's (Derby 2000×100, loaded from a saved
// file so pages come through the buffer pool), the plan is cached, and
// every iteration cold-restarts first. Watch allocs/op and B/op — the
// steady state must allocate by the query, not by the page, row or chunk
// (EXPERIMENTS.md records before/after; TestColdQueryAllocBudget pins it).
func BenchmarkColdQuery(b *testing.B) {
	const providers, avg = 2000, 100
	d, err := derby.Generate(derby.DefaultConfig(providers, avg, derby.ClassCluster))
	if err != nil {
		b.Fatal(err)
	}
	mem, err := d.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "derby.tbsp")
	if err := persist.Save(path, mem); err != nil {
		b.Fatal(err)
	}
	sn, err := persist.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := sn.Engine.PrimeStats(); err != nil {
		b.Fatal(err)
	}
	s := coldSession(sn)
	for _, q := range coldQueryStatements(providers, avg) {
		b.Run(q.name, func(b *testing.B) {
			if _, err := s.ExecuteRows(context.Background(), q.stmt, 10); err != nil { // plan, forks, slabs
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.ExecuteRows(context.Background(), q.stmt, 10)
				if err != nil {
					b.Fatal(err)
				}
				_ = ToWire(res, 10)
			}
		})
	}
}
