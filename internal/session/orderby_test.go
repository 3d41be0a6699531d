package session

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/oql"
	"treebench/internal/selection"
)

// sortAllOracle is the reference order-by: materialize every matching row
// in scan order, stable-sort the lot by key, strip a hidden key column, and
// keep the first n rows.
func sortAllOracle(t *testing.T, db *engine.Database, plan *oql.Plan, n int) [][]object.Value {
	t.Helper()
	chunks := make([][][]object.Value, len(selection.ScanChunks(plan.Extent)))
	_, err := selection.Run(db, selection.Request{
		Extent: plan.Extent, Where: plan.Where, Filters: plan.Filters, Projects: plan.Projects,
		OnBatch: func(c int, cols [][]object.Value, rows int) error {
			for r := 0; r < rows; r++ {
				row := make([]object.Value, len(cols))
				for j := range cols {
					row[j] = cols[j][r]
				}
				chunks[c] = append(chunks[c], row)
			}
			return nil
		},
	}, plan.Access)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]object.Value
	for _, rows := range chunks {
		all = append(all, rows...)
	}
	idx := plan.OrderIdx
	sort.SliceStable(all, func(i, j int) bool {
		if plan.OrderDesc {
			return all[i][idx].Int > all[j][idx].Int
		}
		return all[i][idx].Int < all[j][idx].Int
	})
	all = all[:min(len(all), n)]
	if plan.OrderHidden() {
		for i := range all {
			all[i] = all[i][:len(all[i])-1]
		}
	}
	return all
}

// sampleOf returns a result's rows as the wire carries them.
func sampleOf(res *oql.Result) [][]object.Value {
	var out [][]object.Value
	for _, row := range res.Sample {
		out = append(out, row)
	}
	return out
}

// TestOrderBySampleIsTopOfOrder pins exact ORDER BY semantics for results
// larger than oql.SampleLimit: over all 20 000 patients of Derby 200×100,
// the sample must be the first rows of the whole result in (key, scan
// position) order — at SampleLimit and at a client's 10 rows, at every
// worker count.
func TestOrderBySampleIsTopOfOrder(t *testing.T) {
	d, err := derby.Generate(derby.DefaultConfig(200, 100, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"select pa.mrn from pa in Patients order by pa.mrn desc",
		"select pa.age from pa in Patients order by pa.mrn desc",    // hidden key
		"select pa.mrn, pa.age from pa in Patients order by pa.age", // ties
	}
	ref := New(sn.Fork().DB)
	maxRes, err := ref.Execute("select max(pa.mrn) from pa in Patients")
	if err != nil {
		t.Fatal(err)
	}
	if maxRes.Rows <= oql.SampleLimit {
		t.Fatalf("%d patients do not exceed SampleLimit", maxRes.Rows)
	}
	for _, stmt := range stmts {
		plan, err := ref.Planner.PlanSource(stmt)
		if err != nil {
			t.Fatal(err)
		}
		ref.DB.ColdRestart()
		want := sortAllOracle(t, ref.DB, plan, oql.SampleLimit)
		if stmt == stmts[0] && want[0][0].Int != int64(maxRes.Aggregates[0].Value) {
			t.Fatalf("oracle's first row %v is not the largest mrn %v", want[0][0], maxRes.Aggregates[0].Value)
		}
		for _, qj := range []int{1, 2, 4} {
			s := New(sn.Fork().DB)
			s.DB.SetQueryJobs(qj)
			for _, limit := range []int{10, oql.SampleLimit} {
				res, err := s.ExecuteRows(context.Background(), stmt, limit)
				if err != nil {
					t.Fatal(err)
				}
				if got := sampleOf(res); !reflect.DeepEqual(got, want[:limit]) {
					t.Fatalf("%s qj=%d limit=%d: sample starts %v, want %v", stmt, qj, limit, got[:3], want[:3])
				}
			}
		}
	}
}
