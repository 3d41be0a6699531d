package selection

import (
	"fmt"
	"strings"
	"testing"

	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/txn"
)

// rowsOf adapts a row-at-a-time callback to Request.OnBatch: fn sees every
// selected row's values (its own slice) tagged with the delivering chunk.
func rowsOf(fn rowFunc) func(chunk int, cols [][]object.Value, n int) error {
	return func(chunk int, cols [][]object.Value, n int) error {
		for r := 0; r < n; r++ {
			vals := make([]object.Value, len(cols))
			for j := range cols {
				vals[j] = cols[j][r]
			}
			if err := fn(chunk, vals); err != nil {
				return err
			}
		}
		return nil
	}
}

// chunkRows renders rows per scan chunk (one slot per chunk, so concurrent
// chunks never share one); String concatenates them in chunk order, which
// is the sequential row order.
type chunkRows []strings.Builder

func newChunkRows(e *engine.Extent) chunkRows { return make(chunkRows, len(ScanChunks(e))) }

func (c chunkRows) add(chunk int, vals []object.Value) error {
	fmt.Fprintf(&c[chunk], "%v\n", vals)
	return nil
}

func (c chunkRows) String() string {
	var out strings.Builder
	for i := range c {
		out.WriteString(c[i].String())
	}
	return out.String()
}

// sameResult reports how got differs from want, or "".
func sameResult(got, want *Result) string {
	switch {
	case got.Rows != want.Rows:
		return fmt.Sprintf("%d rows, want %d", got.Rows, want.Rows)
	case got.Elapsed != want.Elapsed:
		return fmt.Sprintf("elapsed %v, want %v", got.Elapsed, want.Elapsed)
	case got.Counters != want.Counters:
		return fmt.Sprintf("counters diverged\n got %+v\nwant %+v", got.Counters, want.Counters)
	case got.SortedRids != want.SortedRids:
		return fmt.Sprintf("sorted %d rids, want %d", got.SortedRids, want.SortedRids)
	}
	return ""
}

// TestSequentialBulkScanCostIdentical pins satellite invariant: the bulk
// (batched) path through the *sequential* full-scan loop — one chunk, one
// worker — must charge exactly what the one-handle-at-a-time loop charges:
// same Figure 3 counters, same simulated elapsed time, same rows. The
// batched scan materializes whole record batches from the extent pages and
// merges one amortized charge per batch, which only reorders additions.
func TestSequentialBulkScanCostIdentical(t *testing.T) {
	d, db := dataset(t)
	db.SetQueryJobs(1) // sequential: the full scan runs as a single chunk
	n := d.NumPatients
	for _, pct := range []int{1, 50, 90} {
		k := int64(n - n*pct/100)
		req := Request{Extent: d.Patients, Where: Pred{Attr: "num", Op: Gt, K: k}, Projects: []string{"age"}}
		for _, access := range []Access{FullScan, IndexScan, SortedIndexScan} {
			db.ColdRestart()
			want, err := runScalar(db, req, access, nil)
			if err != nil {
				t.Fatalf("%s scalar: %v", access, err)
			}
			db.SetBatch(1024)
			db.ColdRestart()
			got, err := Run(db, req, access)
			if err != nil {
				t.Fatalf("%s batched: %v", access, err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Errorf("%s at %d%%: %s", access, pct, diff)
			}
		}
	}
}

// mixedPeople builds a polymorphic People extent (every third person is a
// Student, a subclass with a longer record) in a file it shares with an
// unrelated Things extent, under caches a fraction of the file's size so
// unsorted fetches re-read pages and prefetch windows matter. num is a
// dense permutation of 1..n, indexed and unclustered.
func mixedPeople(t *testing.T, n int) (*engine.Database, *engine.Extent) {
	t.Helper()
	machine := sim.DefaultMachine()
	machine.ClientCache = 16 << 12
	machine.ServerCache = 8 << 12
	db := engine.New(machine, sim.DefaultCostModel(), txn.NoTransaction)
	person := object.NewClass("Person", []object.Attr{
		{Name: "id", Kind: object.KindInt},
		{Name: "num", Kind: object.KindInt},
		{Name: "age", Kind: object.KindInt},
		{Name: "sex", Kind: object.KindChar},
		{Name: "name", Kind: object.KindString, StrLen: 16},
	})
	student, err := object.NewSubclass("Student", person, []object.Attr{{Name: "grade", Kind: object.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	thing := object.NewClass("Thing", []object.Attr{{Name: "x", Kind: object.KindInt}})
	people, err := db.CreateExtent("People", person, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	things, err := db.CreateExtent("Things", thing, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.CreateIndex(people, "num", false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vals := []object.Value{
			object.IntValue(int64(i)),
			object.IntValue(int64(i)*7919%int64(n) + 1), // 7919 is prime: a permutation
			object.IntValue(int64(i % 100)),
			object.CharValue("MF"[i%2]),
			object.StringValue(fmt.Sprintf("p%d", i)),
		}
		cls := person
		if i%3 == 0 {
			cls, vals = student, append(vals, object.IntValue(int64(i%7)))
		}
		if _, err := db.InsertAs(nil, people, cls, vals); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := db.Insert(nil, things, []object.Value{object.IntValue(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, people
}

// TestBatchedSelectionsMatchScalar pins the vectorization invariant on the
// three access paths against the handle-at-a-time reference in
// scalar_test.go: at every batch size (1 included) and worker count the
// product operators must reproduce the reference run's rows — rendered in
// chunk order — row count, simulated elapsed time, Figure 3 counters and
// sorted-rid count exactly, over {no predicate, where, where + two filters
// that short-circuit} × {count-only, two projections} × slim handles on/off
// × client read-ahead {0, 8}. The read-ahead axis pins the one surviving
// prefetch schedule of the sorted index scan to the reference's copy.
func TestBatchedSelectionsMatchScalar(t *testing.T) {
	const n = 13000 // 3 scan chunks
	db, people := mixedPeople(t, n)
	where := Pred{Attr: "num", Op: Gt, K: n - n*60/100}
	filters := []Pred{{Attr: "sex", Op: Eq, K: 'M'}, {Attr: "age", Op: Lt, K: 50}}
	preds := []struct {
		name    string
		where   Pred
		filters []Pred
	}{
		{"all", Always, nil},
		{"where", where, nil},
		{"where+filters", where, filters},
	}
	for _, slim := range []bool{false, true} {
		db.Meter.SetSlimHandles(slim)
		for _, readAhead := range []int{0, 8} {
			db.Client.SetReadAhead(readAhead)
			for _, access := range []Access{FullScan, IndexScan, SortedIndexScan} {
				for _, pred := range preds {
					if pred.where.IsAlways() && access != FullScan {
						continue
					}
					for _, projects := range [][]string{nil, {"age", "name"}} {
						req := Request{Extent: people, Where: pred.where, Filters: pred.filters, Projects: projects}
						db.SetQueryJobs(1)
						db.ColdRestart()
						wantRows := newChunkRows(people)
						want, err := runScalar(db, req, access, wantRows.add)
						if err != nil {
							t.Fatal(err)
						}
						if want.Rows == 0 {
							t.Fatalf("%s %s: reference selected nothing", access, pred.name)
						}
						for _, batch := range []int{1, 7, 1024} {
							for _, qj := range []int{1, 8} {
								label := fmt.Sprintf("%s %s proj=%d slim=%v ra=%d batch=%d qj=%d",
									access, pred.name, len(projects), slim, readAhead, batch, qj)
								db.SetQueryJobs(qj)
								db.SetBatch(batch)
								db.ColdRestart()
								gotRows := newChunkRows(people)
								req.OnBatch = rowsOf(gotRows.add)
								got, err := Run(db, req, access)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								if diff := sameResult(got, want); diff != "" {
									t.Errorf("%s: %s", label, diff)
								}
								if gotRows.String() != wantRows.String() {
									t.Errorf("%s: rendered rows differ from the reference", label)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestKeepChargesLikeDecode pins Request.Keep: on every access path and at
// any worker count, a run that keeps only some rows — by a key column Keep
// is handed, or none at all — charges exactly what a run that keeps every
// row charges, and OnBatch sees exactly the kept rows, whole.
func TestKeepChargesLikeDecode(t *testing.T) {
	const n = 13000 // 3 scan chunks
	db, people := mixedPeople(t, n)
	for _, access := range []Access{FullScan, IndexScan, SortedIndexScan} {
		for _, qj := range []int{1, 8} {
			label := fmt.Sprintf("%s qj=%d", access, qj)
			db.SetQueryJobs(qj)
			all, thirds := newChunkRows(people), newChunkRows(people)
			req := Request{Extent: people, Where: Pred{Attr: "num", Op: Gt, K: n / 2}, Projects: []string{"name", "age"},
				OnBatch: rowsOf(func(c int, vals []object.Value) error {
					if vals[1].Int%3 == 0 {
						thirds.add(c, vals)
					}
					return all.add(c, vals)
				})}
			db.ColdRestart()
			want, err := Run(db, req, access)
			if err != nil {
				t.Fatal(err)
			}
			kept := newChunkRows(people)
			req.OnBatch = rowsOf(kept.add)
			req.Key, req.Keep = 1, func(_ int, age object.Value) bool { return age.Int%3 == 0 }
			db.ColdRestart()
			got, err := Run(db, req, access)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Errorf("%s keeping a third: %s", label, diff)
			}
			if kept.String() != thirds.String() || kept.String() == all.String() {
				t.Errorf("%s: OnBatch saw other rows than the kept ones", label)
			}
			req.OnBatch = func(int, [][]object.Value, int) error {
				return fmt.Errorf("%s: a row nobody kept was delivered", label)
			}
			req.Key, req.Keep = -1, func(int, object.Value) bool { return false }
			db.ColdRestart()
			if got, err = Run(db, req, access); err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Errorf("%s keeping nothing: %s", label, diff)
			}
		}
	}
}
