package session

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"treebench/internal/backend"
	"treebench/internal/collection"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/oql"
	"treebench/internal/selection"
	"treebench/internal/storage"
)

// reference is the semantic oracle's copy of a Derby database: every
// Provider and Patient decoded once, straight from the extents' files, and
// each provider's clients read from its set. Nothing in it runs through
// an index, an operator, the planner or the executor.
type reference struct {
	vars  map[string][]refObject // extent name → objects
	byRid map[storage.Rid]int    // a patient's stable rid → its index in vars["Patients"]
}

// refObject is one decoded object: its attribute values by name, and for
// a provider the rids of its clients.
type refObject struct {
	attrs   map[string]object.Value
	clients []storage.Rid
}

// newReference decodes the Providers and Patients extents of db.
func newReference(t *testing.T, db *engine.Database) *reference {
	t.Helper()
	ref := &reference{vars: map[string][]refObject{}}
	patients := map[storage.Rid]int{} // stable rid → index into Patients
	for _, name := range []string{"Patients", "Providers"} {
		ext, err := db.Extent(name)
		if err != nil {
			t.Fatal(err)
		}
		// A relocated record is scanned at its new position; the rest of
		// the database names it by its forwarding stub's rid.
		stable := map[storage.Rid]storage.Rid{}
		err = ext.File.ScanForwards(db.Client, func(stub, target storage.Rid) (bool, error) {
			stable[target] = stub
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = ext.File.Scan(db.Client, func(rid storage.Rid, rec []byte) (bool, error) {
			if !db.Classes.Belongs(object.ClassID(rec), ext.Class) {
				return true, nil // a clients set's chunk, stored alongside
			}
			if s, ok := stable[rid]; ok {
				rid = s
			}
			o := refObject{attrs: map[string]object.Value{}}
			for i, a := range ext.Class.Attrs {
				v, err := object.DecodeAttr(ext.Class, rec, i)
				if err != nil {
					return false, err
				}
				o.attrs[a.Name] = v
				if a.Kind == object.KindSet && !v.Ref.IsNil() {
					if o.clients, err = collection.Elems(db.Client, v.Ref); err != nil {
						return false, err
					}
				}
			}
			if name == "Patients" {
				patients[rid] = len(ref.vars[name])
			}
			ref.vars[name] = append(ref.vars[name], o)
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ref.vars["Providers"] {
		for _, rid := range p.clients {
			if _, ok := patients[rid]; !ok {
				t.Fatalf("provider %v lists client %v, which is no patient", p.attrs["upin"], rid)
			}
		}
	}
	ref.byRid = patients
	return ref
}

// refAnswer is what a statement means: its matching rows' projected values
// (with the order key alongside), their count and its aggregates.
type refAnswer struct {
	rows []refRow
	aggs []float64
}

type refRow struct {
	vals []object.Value
	key  int64
}

// answer evaluates q by definition: nested loops over its bindings, every
// conjunct tested on every binding, aggregates folded over all matches.
func (ref *reference) answer(t *testing.T, q *oql.Query) refAnswer {
	t.Helper()
	var ans refAnswer
	env := map[string]refObject{}
	value := func(p oql.Path) object.Value {
		if len(p.Attrs) != 1 {
			t.Fatalf("path %s is not one attribute", p)
		}
		v, ok := env[p.Var].attrs[p.Attrs[0]]
		if !ok {
			t.Fatalf("no attribute %s", p)
		}
		return v
	}
	var loop func(level int)
	loop = func(level int) {
		if level < len(q.Bindings) {
			b := q.Bindings[level]
			objs := ref.vars[b.Extent]
			if b.Extent == "" {
				objs = nil
				for _, rid := range env[b.ParentVar].clients {
					objs = append(objs, ref.vars["Patients"][ref.byRid[rid]])
				}
			}
			for _, o := range objs {
				env[b.Var] = o
				loop(level + 1)
			}
			return
		}
		for _, c := range q.Where {
			if !holds(value(c.Path).Int, c.Op, c.K) {
				return
			}
		}
		var r refRow
		for _, p := range q.Projections {
			r.vals = append(r.vals, value(p.Path))
		}
		if q.OrderBy != nil {
			r.key = value(q.OrderBy.Path).Int
		}
		ans.rows = append(ans.rows, r)
	}
	loop(0)
	if q.HasAggregates() {
		for i, p := range q.Projections {
			var n, sum, lo, hi int64
			for _, r := range ans.rows {
				v := r.vals[i].Int
				if n == 0 || v < lo {
					lo = v
				}
				if n == 0 || v > hi {
					hi = v
				}
				n++
				sum += v
			}
			agg := map[oql.Aggregate]float64{oql.AggCount: float64(n), oql.AggSum: float64(sum)}
			if n > 0 {
				agg[oql.AggMin], agg[oql.AggMax] = float64(lo), float64(hi)
				agg[oql.AggAvg] = float64(sum) / float64(n)
			}
			ans.aggs = append(ans.aggs, agg[p.Agg])
		}
	}
	return ans
}

// holds is a comparison by its definition.
func holds(v int64, op selection.Op, k int64) bool {
	switch op {
	case selection.Lt:
		return v < k
	case selection.Le:
		return v <= k
	case selection.Gt:
		return v > k
	case selection.Ge:
		return v >= k
	case selection.Eq:
		return v == k
	case selection.Ne:
		return v != k
	}
	panic("unknown operator " + string(op))
}

// rowKey renders a row's values for multiset counting.
func rowKey(vals []object.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d:%d:%q:%v", v.Kind, v.Int, v.Str, v.Ref)
	}
	return strings.Join(parts, "|")
}

// subMultiset reports the first row of got that want cannot supply, as
// many times as got holds it; "" when every row is accounted for.
func subMultiset(got []oql.Row, want []refRow) string {
	have := map[string]int{}
	for _, r := range want {
		have[rowKey(r.vals)]++
	}
	for _, r := range got {
		k := rowKey(r)
		if have[k] == 0 {
			return fmt.Sprint(r)
		}
		have[k]--
	}
	return ""
}

// check holds one result to its statement's meaning at limit rows.
// Without an order-by the sample is limit rows (or all of them, if fewer
// match) out of the matching multiset. With one, the sample's keys are the
// first limit keys of the fully sorted result, exactly, and each key's
// rows are a sub-multiset of the rows with that key: ties may come in any
// scan order. A tree join returns its row count only.
func (ans refAnswer) check(q *oql.Query, res *oql.Result, limit int) error {
	if res.Rows != len(ans.rows) {
		return fmt.Errorf("%d rows, the definition gives %d", res.Rows, len(ans.rows))
	}
	if len(res.Aggregates) != len(ans.aggs) {
		return fmt.Errorf("%d aggregates, want %d", len(res.Aggregates), len(ans.aggs))
	}
	for i, a := range res.Aggregates {
		if a.Value != ans.aggs[i] {
			return fmt.Errorf("%s = %v, the definition gives %v", a.Label, a.Value, ans.aggs[i])
		}
	}
	if len(q.Bindings) > 1 || q.CountStar || q.HasAggregates() {
		if len(res.Sample) != 0 {
			return fmt.Errorf("%d sample rows for a statement that materializes none", len(res.Sample))
		}
		return nil
	}
	want := min(limit, len(ans.rows))
	if len(res.Sample) != want {
		return fmt.Errorf("%d sample rows, want %d", len(res.Sample), want)
	}
	if q.OrderBy == nil {
		if r := subMultiset(res.Sample, ans.rows); r != "" {
			return fmt.Errorf("sample row %s matches no row of the result, or too few", r)
		}
		return nil
	}
	sorted := append([]refRow(nil), ans.rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if q.OrderBy.Desc {
			return sorted[i].key > sorted[j].key
		}
		return sorted[i].key < sorted[j].key
	})
	group := map[int64][]refRow{}
	for _, r := range sorted {
		group[r.key] = append(group[r.key], r)
	}
	for lo := 0; lo < want; {
		k := sorted[lo].key
		hi := lo
		for hi < want && sorted[hi].key == k {
			hi++
		}
		if r := subMultiset(res.Sample[lo:hi], group[k]); r != "" {
			return fmt.Errorf("sample rows %d..%d should hold key %d: row %s is not among its rows", lo, hi-1, k, r)
		}
		lo = hi
	}
	return nil
}

// TestSemanticOracle checks what every batch and cold-query statement, and
// an order-by whose 16 000 rows exceed SampleLimit, returns on Derby
// 200×100 against the statement's meaning, computed by nested loops over
// objects decoded once from the extents' files: row counts, aggregates,
// and sample rows at a client's 10 rows and at SampleLimit, on both index
// backends. It shares no code with the operators, planner or executor it
// checks, so a refactor of the scan paths cannot carry its answers away.
func TestSemanticOracle(t *testing.T) {
	stmts := append([]string(nil), batchStatements...)
	for _, c := range coldQueryStatements(200, 100) {
		stmts = append(stmts, c.stmt)
	}
	big := "select pa.mrn from pa in Patients where pa.age < 80 order by pa.age"
	stmts = append(stmts, big)
	for _, kind := range backend.Kinds() {
		t.Run(kind, func(t *testing.T) {
			cfg := derby.DefaultConfig(200, 100, derby.ClassCluster)
			cfg.IndexBackend = kind
			d, err := derby.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sn, err := d.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			ref := newReference(t, sn.Fork().DB)
			clients := 0
			for _, p := range ref.vars["Providers"] {
				clients += len(p.clients)
			}
			if np, na := len(ref.vars["Providers"]), len(ref.vars["Patients"]); np != 200 || na != 20000 || clients != na {
				t.Fatalf("decoded %d providers with %d clients and %d patients, want 200 with 20000 and 20000", np, clients, na)
			}
			s := New(sn.Fork().DB)
			for _, stmt := range stmts {
				q, err := oql.Parse(stmt)
				if err != nil {
					t.Fatal(err)
				}
				ans := ref.answer(t, q)
				if stmt == big && len(ans.rows) <= oql.SampleLimit {
					t.Fatalf("%s: %d rows do not exceed SampleLimit", stmt, len(ans.rows))
				}
				for _, limit := range []int{10, oql.SampleLimit} {
					res, err := s.ExecuteRows(context.Background(), stmt, limit)
					if err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
					if err := ans.check(q, res, limit); err != nil {
						t.Errorf("%s (limit %d): %v", stmt, limit, err)
					}
				}
			}
		})
	}
}
