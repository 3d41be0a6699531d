package session

import (
	"strings"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/sim"
)

// batchStatements cover every batched operator shape: full-scan aggregate,
// full-scan sample rows, index scan, sorted index scan (index+sort), and
// the tree join (the planner picks PHJ at this selectivity).
var batchStatements = append([]string{
	"select pa.name from pa in Patients where pa.mrn < 100",
	"select pa.name, pa.age from pa in Patients where pa.mrn < 51 order by pa.age desc",
}, parallelStatements...)

// renderAtBatch forks a fresh session from sn, pins its worker count and
// vectorized-execution batch size, and returns the concatenated rendered
// results plus the summed meter counters across statements.
func renderAtBatch(t *testing.T, sn *derby.Snapshot, jobs, batch int) (string, sim.Counters) {
	t.Helper()
	f := sn.Fork()
	f.DB.SetQueryJobs(jobs)
	f.DB.SetBatch(batch)
	s := New(f.DB)
	var out strings.Builder
	var total sim.Counters
	for _, stmt := range batchStatements {
		res, err := s.Execute(stmt)
		if err != nil {
			t.Fatalf("qj=%d batch=%d %s: %v", jobs, batch, stmt, err)
		}
		WriteResult(&out, ToWire(res, 10), 10)
		total.Add(res.Counters)
	}
	return out.String(), total
}

// TestBatchScalarEquivalence is the vectorization invariant: the rendered
// output (plan, rows, aggregates, simulated elapsed time, Figure 3
// counters) and the raw meter totals must be byte-identical whether the
// operators run over batches of one record or of any size, at any
// intra-query worker count. Batched execution amortizes real work per
// batch but merges its simulated charges exactly where a handle-at-a-time
// loop charges them (the join and selection packages compare against that
// loop itself, kept in their scalar_test.go).
func TestBatchScalarEquivalence(t *testing.T) {
	d, err := derby.Generate(derby.DefaultConfig(200, 100, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	want, wantN := renderAtBatch(t, sn, 1, 1)
	if want == "" {
		t.Fatal("scalar run produced no output")
	}
	for _, jobs := range []int{1, 8} {
		for _, batch := range []int{1, 7, 1024, 4096} {
			if jobs == 1 && batch == 1 {
				continue // the baseline itself
			}
			got, gotN := renderAtBatch(t, sn, jobs, batch)
			if gotN != wantN {
				t.Errorf("qj=%d batch=%d: counters diverged\n got %+v\nwant %+v", jobs, batch, gotN, wantN)
			}
			if got != want {
				t.Errorf("qj=%d batch=%d: rendered output diverged from scalar\n%s", jobs, batch, firstDiff(got, want))
			}
		}
	}
}
