package oql

import (
	"testing"

	"treebench/internal/derby"
	"treebench/internal/selection"
)

// TestFullScanPredictsItsCounters holds the full-scan estimate to what a
// cold full scan charges, counter by counter: the pages, cursor steps,
// handle gets and releases and comparisons the planner predicts are the
// ones the executor counts.
func TestFullScanPredictsItsCounters(t *testing.T) {
	for _, cl := range []derby.Clustering{derby.ClassCluster, derby.RandomOrg} {
		pl, _ := planner(t, 200, 20, cl, CostBased)
		plan, err := pl.PlanSource("select pa.age from pa in Patients where pa.mrn < 401")
		if err != nil {
			t.Fatal(err)
		}
		plan.Access = selection.FullScan
		pl.DB.ColdRestart()
		res, err := pl.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		want := pl.costFullScan(plan.Extent, float64(res.Rows))
		got := res.Counters
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"DiskReads", float64(got.DiskReads), want.DiskReads},
			{"ScanNexts", float64(got.ScanNexts), want.ScanNexts},
			{"HandleGets", float64(got.HandleGets), want.HandleGets},
			{"HandleUnrefs", float64(got.HandleUnrefs), want.HandleUnrefs},
			{"Compares", float64(got.Compares), want.Compares},
		} {
			if c.got != c.want {
				t.Errorf("%s: measured %s %v, predicted %v", cl, c.name, c.got, c.want)
			}
		}
		t.Logf("%s: %v pages, %v objects", cl, got.DiskReads, got.ScanNexts)
	}
}
