package selection

import (
	"errors"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/object"
)

func dataset(t *testing.T) (*derby.Dataset, *engine.Database) {
	t.Helper()
	d, err := derby.Generate(derby.DefaultConfig(20, 100, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	return d, d.DB
}

func TestAccessPathsAgreeOnRows(t *testing.T) {
	d, db := dataset(t)
	n := d.NumPatients
	for _, pct := range []int{1, 10, 50, 90} {
		// num > k keeps pct% of patients (num is a dense permutation).
		k := int64(n - n*pct/100)
		req := Request{Extent: d.Patients, Where: Pred{Attr: "num", Op: Gt, K: k}, Projects: []string{"age"}}
		want := n * pct / 100
		for _, access := range []Access{FullScan, IndexScan, SortedIndexScan} {
			db.ColdRestart()
			res, err := Run(db, req, access)
			if err != nil {
				t.Fatalf("%s: %v", access, err)
			}
			if res.Rows != want {
				t.Fatalf("%s at %d%%: %d rows, want %d", access, pct, res.Rows, want)
			}
		}
	}
}

func TestPredicateOperators(t *testing.T) {
	d, db := dataset(t)
	n := d.NumPatients
	cases := []struct {
		p    Pred
		want int
	}{
		{Pred{"mrn", Lt, 101}, 100},
		{Pred{"mrn", Le, 100}, 100},
		{Pred{"mrn", Gt, int64(n - 50)}, 50},
		{Pred{"mrn", Ge, int64(n - 49)}, 50},
		{Pred{"mrn", Eq, 7}, 1},
	}
	for _, c := range cases {
		for _, access := range []Access{FullScan, IndexScan, SortedIndexScan} {
			db.ColdRestart()
			res, err := Run(db, Request{Extent: d.Patients, Where: c.p}, access)
			if err != nil {
				t.Fatalf("%v %s: %v", c.p, access, err)
			}
			if res.Rows != c.want {
				t.Fatalf("%v via %s: %d rows, want %d", c.p, access, res.Rows, c.want)
			}
		}
	}
}

// TestFullScanCostIsSelectivityIndependent reproduces §4.2: "when no index
// is used, the number of I/Os for performing a selection does not depend on
// the selectivity".
func TestFullScanCostIsSelectivityIndependent(t *testing.T) {
	d, db := dataset(t)
	n := d.NumPatients
	var ios []int64
	for _, pct := range []int{1, 90} {
		k := int64(n - n*pct/100)
		db.ColdRestart()
		res, err := Run(db, Request{Extent: d.Patients, Where: Pred{Attr: "num", Op: Gt, K: k}, Projects: []string{"age"}}, FullScan)
		if err != nil {
			t.Fatal(err)
		}
		ios = append(ios, res.Counters.DiskReads)
	}
	if ios[0] != ios[1] {
		t.Fatalf("full-scan I/O depends on selectivity: %d vs %d", ios[0], ios[1])
	}
}

// TestFullScanChargesHandlesForWholeCollection checks the Figure 9 account:
// the standard scan gets and unrefs one Handle per object in the
// collection, the index scans only for the selected elements.
func TestFullScanChargesHandlesForWholeCollection(t *testing.T) {
	d, db := dataset(t)
	n := d.NumPatients
	pct := 10
	k := int64(n - n*pct/100)
	req := Request{Extent: d.Patients, Where: Pred{Attr: "num", Op: Gt, K: k}, Projects: []string{"age"}}

	db.ColdRestart()
	full, err := Run(db, req, FullScan)
	if err != nil {
		t.Fatal(err)
	}
	if full.Counters.HandleGets != int64(n) {
		t.Fatalf("full scan got %d handles, want %d", full.Counters.HandleGets, n)
	}
	db.ColdRestart()
	sorted, err := Run(db, req, SortedIndexScan)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * pct / 100); sorted.Counters.HandleGets != want {
		t.Fatalf("sorted index scan got %d handles, want %d", sorted.Counters.HandleGets, want)
	}
	if sorted.SortedRids != n*pct/100 {
		t.Fatalf("SortedRids = %d", sorted.SortedRids)
	}
}

// TestUnclusteredIndexReadsMorePagesAtHighSelectivity reproduces the §4.2
// threshold: past a few percent selectivity the unsorted scan over the
// unclustered num index reads more pages than the full scan ("many pages
// are read more than once"), while the sorted variant never does.
func TestUnclusteredIndexReadsMorePagesAtHighSelectivity(t *testing.T) {
	// A patient file much larger than the client cache is needed for
	// re-reads; shrink the caches instead of growing the data.
	cfg := derby.DefaultConfig(20, 200, derby.ClassCluster)
	cfg.Machine.ClientCache = 16 << 12 // 16 pages
	cfg.Machine.ServerCache = 8 << 12
	d, err := derby.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := d.DB
	n := d.NumPatients
	k := int64(n - n*90/100) // 90% selectivity
	req := Request{Extent: d.Patients, Where: Pred{Attr: "num", Op: Gt, K: k}, Projects: []string{"age"}}

	db.ColdRestart()
	full, err := Run(db, req, FullScan)
	if err != nil {
		t.Fatal(err)
	}
	db.ColdRestart()
	unsorted, err := Run(db, req, IndexScan)
	if err != nil {
		t.Fatal(err)
	}
	db.ColdRestart()
	sorted, err := Run(db, req, SortedIndexScan)
	if err != nil {
		t.Fatal(err)
	}
	if unsorted.Counters.DiskReads <= full.Counters.DiskReads {
		t.Fatalf("unsorted index scan read %d pages vs full scan %d; expected more",
			unsorted.Counters.DiskReads, full.Counters.DiskReads)
	}
	if sorted.Counters.DiskReads >= unsorted.Counters.DiskReads {
		t.Fatalf("sorted index scan read %d pages vs unsorted %d; expected fewer",
			sorted.Counters.DiskReads, unsorted.Counters.DiskReads)
	}
	// And the headline of Figure 7: even at 90% selectivity the sorted
	// index scan beats the full scan (handle savings dominate).
	if sorted.Elapsed >= full.Elapsed {
		t.Fatalf("sorted index scan (%v) not faster than full scan (%v) at 90%%",
			sorted.Elapsed, full.Elapsed)
	}
}

func TestRunValidation(t *testing.T) {
	d, db := dataset(t)
	db.ColdRestart()
	if _, err := Run(db, Request{Extent: d.Patients, Where: Pred{Attr: "nope", Op: Lt, K: 1}}, FullScan); err == nil {
		t.Fatal("bad where attribute accepted")
	}
	if _, err := Run(db, Request{Extent: d.Patients, Where: Pred{Attr: "mrn", Op: Lt, K: 1}, Projects: []string{"nope"}}, FullScan); err == nil {
		t.Fatal("bad projection accepted")
	}
	if _, err := Run(db, Request{Extent: d.Patients, Where: Pred{Attr: "age", Op: Lt, K: 1}}, IndexScan); err == nil {
		t.Fatal("index scan without index accepted")
	}
	if _, err := Run(db, Request{Extent: d.Patients, Where: Pred{Attr: "mrn", Op: Lt, K: 1}}, Access("warp")); err == nil {
		t.Fatal("unknown access path accepted")
	}
	if _, err := Run(db, Request{Extent: d.Patients, Where: Pred{Attr: "mrn", Op: Op("~"), K: 1}}, IndexScan); err == nil {
		t.Fatal("non-indexable operator accepted")
	}
}

func TestPredEvalAndRange(t *testing.T) {
	if !(Pred{Attr: "x", Op: Lt, K: 5}).Eval(4) || (Pred{Attr: "x", Op: Lt, K: 5}).Eval(5) {
		t.Fatal("Lt")
	}
	if !(Pred{Attr: "x", Op: Ge, K: 5}).Eval(5) {
		t.Fatal("Ge")
	}
	if (Pred{Attr: "x", Op: Op("!")}).Eval(1) {
		t.Fatal("unknown op must be false")
	}
	if _, _, ok := (Pred{Op: Op("!")}).KeyRange(); ok {
		t.Fatal("unknown op has a range")
	}
	lo, hi, ok := (Pred{Op: Eq, K: 9}).KeyRange()
	if !ok || lo != 9 || hi != 10 {
		t.Fatalf("Eq range [%d,%d)", lo, hi)
	}
}

func TestFiltersOnBothAccessPaths(t *testing.T) {
	d, db := dataset(t)
	// Access via mrn, filter residually on sex and age.
	req := Request{
		Extent: d.Patients,
		Where:  Pred{Attr: "mrn", Op: Lt, K: 201},
		Filters: []Pred{
			{Attr: "sex", Op: Eq, K: 'M'},
			{Attr: "age", Op: Lt, K: 50},
		},
		Projects: []string{"name", "age"},
	}
	// Patients j: mrn=j+1, sex M when j even, age=j%100.
	// mrn<201 ⇒ j in 0..199; even j ⇒ 100; of those, age=j%100<50 ⇒ j%100 in
	// {0,2,...,48} ⇒ 25 per hundred ⇒ 50.
	want := 50
	var results []int
	for _, access := range []Access{FullScan, IndexScan, SortedIndexScan} {
		db.ColdRestart()
		res, err := Run(db, req, access)
		if err != nil {
			t.Fatalf("%s: %v", access, err)
		}
		results = append(results, res.Rows)
		if res.Rows != want {
			t.Fatalf("%s: %d rows, want %d", access, res.Rows, want)
		}
	}
	_ = results
}

func TestUnqualifiedFullScan(t *testing.T) {
	d, db := dataset(t)
	db.ColdRestart()
	res, err := Run(db, Request{Extent: d.Patients, Where: Always}, FullScan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != d.NumPatients {
		t.Fatalf("rows = %d, want %d", res.Rows, d.NumPatients)
	}
	// Index scans refuse an empty predicate.
	if _, err := Run(db, Request{Extent: d.Patients, Where: Always}, IndexScan); err == nil {
		t.Fatal("index scan without predicate accepted")
	}
	// Bad filter attribute rejected.
	if _, err := Run(db, Request{
		Extent: d.Patients, Where: Always,
		Filters: []Pred{{Attr: "nope", Op: Eq, K: 1}},
	}, FullScan); err == nil {
		t.Fatal("bad filter attribute accepted")
	}
}

func TestOnRowReceivesValues(t *testing.T) {
	d, db := dataset(t)
	db.ColdRestart()
	var got []int64
	req := Request{
		Extent:   d.Patients,
		Where:    Pred{Attr: "mrn", Op: Lt, K: 6},
		Projects: []string{"mrn"},
		OnBatch: rowsOf(func(_ int, vals []object.Value) error {
			got = append(got, vals[0].Int)
			return nil
		}),
	}
	if _, err := Run(db, req, SortedIndexScan); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("OnBatch saw %d rows", len(got))
	}
	// Callback errors propagate.
	req.OnBatch = rowsOf(func(int, []object.Value) error { return errStop })
	db.ColdRestart()
	if _, err := Run(db, req, FullScan); err == nil {
		t.Fatal("OnBatch error swallowed")
	}
}

var errStop = errors.New("stop")

// TestScratchKeepsBoundedRidTable: an index scan grows the session's rid
// table to its row count, and the session keeps that table between
// borrows only up to 32 batches of rids. At batch 16 a 2 000-row scan's
// table is dropped, and a 300-row scan's (under 512) is kept.
func TestScratchKeepsBoundedRidTable(t *testing.T) {
	d, db := dataset(t)
	db.SetBatch(16)
	ridCap := func(rows int) int {
		t.Helper()
		req := Request{Extent: d.Patients, Where: Pred{Attr: "mrn", Op: Lt, K: int64(rows + 1)}, Projects: []string{"age"}}
		res, err := Run(db, req, IndexScan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != rows {
			t.Fatalf("mrn < %d: %d rows, want %d", rows+1, res.Rows, rows)
		}
		sc := db.Borrow()
		defer db.Return(sc)
		return cap(sc.Rids)
	}
	if c := ridCap(2000); c > 32*16 {
		t.Errorf("after a 2000-row index scan the session keeps %d rids, want at most %d", c, 32*16)
	}
	if c := ridCap(300); c < 300 {
		t.Errorf("after a 300-row index scan the session keeps %d rids, want its table of at least 300", c)
	}
}
