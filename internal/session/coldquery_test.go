package session

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// liveSnapshot loads the live benchmark's database once per test binary:
// Derby 2000×100, saved and loaded back so pages come through the buffer
// pool, statistics primed.
func liveSnapshot(b *testing.B) *derby.Snapshot {
	b.Helper()
	live.once.Do(func() { live.sn, live.err = loadLive() })
	if live.err != nil {
		b.Fatal(live.err)
	}
	return live.sn
}

const liveProviders, liveAvg = 2000, 100

var live struct {
	once sync.Once
	sn   *derby.Snapshot
	err  error
}

func loadLive() (*derby.Snapshot, error) {
	d, err := derby.Generate(derby.DefaultConfig(liveProviders, liveAvg, derby.ClassCluster))
	if err != nil {
		return nil, err
	}
	mem, err := d.Freeze()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "coldquery")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // the loaded snapshot reads through its open file
	path := filepath.Join(dir, "derby.tbsp")
	if err := persist.Save(path, mem); err != nil {
		return nil, err
	}
	sn, err := persist.Load(path)
	if err != nil {
		return nil, err
	}
	return sn, sn.Engine.PrimeStats()
}

// BenchmarkColdQuery prices one cold execution of each statement class on a
// long-lived session, as a daemon connection runs it for a client that
// shows 10 rows (ExecuteRows, then ToWire): the database is the live
// benchmark's (liveSnapshot), the plan is cached, and every iteration
// cold-restarts first. Watch allocs/op and B/op — the steady state must
// allocate by the query, not by the page, row or chunk (EXPERIMENTS.md
// records before/after; TestColdQueryAllocBudget pins it).
func BenchmarkColdQuery(b *testing.B) {
	s := coldSession(liveSnapshot(b))
	for _, q := range coldQueryStatements(liveProviders, liveAvg) {
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

// BenchmarkSecondQuery prices the second run of each statement class on a
// new session — a daemon connection's second query. Each iteration forks
// a session and runs the statement once untimed, which plans it and
// builds the chunk forks and the operator scratch; the timed second run
// must already cost what BenchmarkColdQuery's steady state does. A gap
// between the two is per-session state that is rebuilt, not kept.
func BenchmarkSecondQuery(b *testing.B) {
	sn := liveSnapshot(b)
	for _, q := range coldQueryStatements(liveProviders, liveAvg) {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := coldSession(sn)
				if _, err := s.ExecuteRows(context.Background(), q.stmt, 10); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := s.ExecuteRows(context.Background(), q.stmt, 10)
				if err != nil {
					b.Fatal(err)
				}
				_ = ToWire(res, 10)
			}
		})
	}
}
