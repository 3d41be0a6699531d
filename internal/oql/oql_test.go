package oql

import (
	"strings"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/join"
	"treebench/internal/object"
	"treebench/internal/selection"
)

func planner(t *testing.T, providers, avgPatients int, cl derby.Clustering, s Strategy) (*Planner, *derby.Dataset) {
	t.Helper()
	d, err := derby.Generate(derby.DefaultConfig(providers, avgPatients, cl))
	if err != nil {
		t.Fatal(err)
	}
	return &Planner{DB: d.DB, Strategy: s}, d
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`select p.name from p in Providers where p.upin <= 42 and p.upin != 7`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].kind != tokKeyword || toks[0].text != "select" {
		t.Fatalf("first token %v", toks[0])
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF")
	}
	for _, bad := range []string{"a ! b", `select "unterminated`, "a § b"} {
		if _, err := lex(bad); err == nil {
			t.Fatalf("lex(%q) accepted", bad)
		}
	}
}

func TestParseTreeQuery(t *testing.T) {
	q, err := Parse(`select p.name, pa.age
		from p in Providers, pa in p.clients
		where pa.mrn < 100 and p.upin < 50`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Bindings) != 2 || q.Bindings[1].ParentVar != "p" || q.Bindings[1].ParentAttr != "clients" {
		t.Fatalf("bindings: %+v", q.Bindings)
	}
	if len(q.Where) != 2 || q.Where[0].Path.String() != "pa.mrn" || q.Where[0].K != 100 {
		t.Fatalf("where: %+v", q.Where)
	}
	// Round trip through String and Parse again.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip: %q vs %q", q2.String(), q.String())
	}
}

func TestParseMirroredLiteral(t *testing.T) {
	q, err := Parse(`select p.upin from p in Providers where 100 > p.upin`)
	if err != nil {
		t.Fatal(err)
	}
	c := q.Where[0]
	if c.Op != selection.Lt || c.K != 100 {
		t.Fatalf("mirrored comparison: %+v", c)
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse(`select count(*) from pa in Patients where pa.num > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.CountStar || len(q.Projections) != 0 {
		t.Fatalf("count(*): %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from p in P",
		"select p.x from p",
		"select p.x from p in",
		"select p.x from p in A where",
		"select p.x from p in A where p.y <",
		"select p.x from p in A where p.y < 3 and",
		"select p.x from p in A.b.c",
		"select count(* from p in A",
		"select p.x from p in A trailing",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) accepted", src)
		}
	}
}

func TestSelectionQueryExecutes(t *testing.T) {
	pl, d := planner(t, 20, 50, derby.ClassCluster, CostBased)
	n := d.NumPatients
	pl.DB.ColdRestart()
	res, err := pl.Query(`select pa.age from pa in Patients where pa.mrn < 101`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 100 {
		t.Fatalf("rows = %d, want 100", res.Rows)
	}
	if res.Plan.Kind != PlanSelection || res.Selection == nil {
		t.Fatal("wrong plan kind")
	}
	// count(*) with conjunction.
	pl.DB.ColdRestart()
	res, err = pl.Query(`select count(*) from pa in Patients where pa.mrn < 101 and pa.sex = 70`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 50 { // mrn 1..100, even j ⇒ 'F'(70) for odd mrn... half
		t.Fatalf("conjunctive count = %d, want 50", res.Rows)
	}
	_ = n
}

func TestCostBasedPicksIndexAtLowSelectivity(t *testing.T) {
	pl, d := planner(t, 20, 100, derby.ClassCluster, CostBased)
	// 1% selectivity through the unclustered num index: any index access
	// must win the cost race against the full scan. (At this toy scale
	// the sorted and unsorted variants tie — nothing re-reads — so the
	// specific variant is not asserted; the 90% small-cache test below
	// pins the sorted-vs-unsorted decision where it matters.)
	k := int64(d.NumPatients - d.NumPatients/100)
	pl.DB.ColdRestart()
	ast, err := Parse("select pa.age from pa in Patients where pa.num > " + itoa(k))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.Plan(ast)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access == selection.FullScan {
		t.Fatalf("cost-based chose the full scan at 1%% selectivity\n%s", plan.Explain())
	}
	if len(plan.Estimates) != 3 {
		t.Fatalf("estimates: %+v", plan.Estimates)
	}
}

func TestHeuristicUsesUnsortedIndex(t *testing.T) {
	pl, d := planner(t, 20, 100, derby.ClassCluster, Heuristic)
	k := int64(d.NumPatients / 10) // 90% selectivity: the index is a trap
	pl.DB.ColdRestart()
	ast, _ := Parse("select pa.age from pa in Patients where pa.num > " + itoa(k))
	plan, err := pl.Plan(ast)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access != selection.IndexScan {
		t.Fatalf("heuristic chose %s", plan.Access)
	}
}

func TestCostBasedAvoidsIndexTrapAtHighSelectivity(t *testing.T) {
	// Small caches make the unclustered index pessimal at 90%; the
	// cost-based strategy must not choose the plain index scan.
	cfg := derby.DefaultConfig(20, 200, derby.ClassCluster)
	cfg.Machine.ClientCache = 16 << 12
	cfg.Machine.ServerCache = 8 << 12
	d, err := derby.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Planner{DB: d.DB, Strategy: CostBased}
	k := int64(d.NumPatients / 10)
	d.DB.ColdRestart()
	ast, _ := Parse("select pa.age from pa in Patients where pa.num > " + itoa(k))
	plan, err := pl.Plan(ast)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access == selection.IndexScan {
		t.Fatalf("cost-based fell into the unsorted-index trap\n%s", plan.Explain())
	}
}

func TestTreeQueryExecutesAllStrategies(t *testing.T) {
	pl, d := planner(t, 50, 5, derby.ClassCluster, CostBased)
	k1 := d.NumPatients/2 + 1
	k2 := d.NumProviders/2 + 1
	src := "select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < " +
		itoa(int64(k1)) + " and p.upin < " + itoa(int64(k2))

	pl.DB.ColdRestart()
	res, err := pl.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Kind != PlanTreeJoin || res.Join == nil {
		t.Fatal("wrong plan kind")
	}
	want := res.Rows

	// The heuristic strategy picks NL; same rows, different cost.
	pl.Strategy = Heuristic
	pl.DB.ColdRestart()
	hres, err := pl.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Plan.Algorithm != join.NL {
		t.Fatalf("heuristic picked %s", hres.Plan.Algorithm)
	}
	if hres.Rows != want {
		t.Fatalf("strategies disagree: %d vs %d rows", hres.Rows, want)
	}
}

func TestCostBasedPlansMatchMeasuredWinnerOnComposition(t *testing.T) {
	// Composition clustering: the measured §5.3 winner is NL; the cost
	// model must predict it.
	pl, d := planner(t, 100, 20, derby.CompositionCluster, CostBased)
	k1 := d.NumPatients/10 + 1
	k2 := d.NumProviders/10 + 1
	src := "select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < " +
		itoa(int64(k1)) + " and p.upin < " + itoa(int64(k2))
	ast, _ := Parse(src)
	plan, err := pl.Plan(ast)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != join.NL {
		t.Fatalf("cost model predicted %s under composition clustering\n%s",
			plan.Algorithm, plan.Explain())
	}
}

func TestTreeQueryWithoutPredicates(t *testing.T) {
	pl, d := planner(t, 30, 3, derby.ClassCluster, CostBased)
	pl.DB.ColdRestart()
	res, err := pl.Query(`select count(*) from p in Providers, pa in p.clients`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != d.NumPatients {
		t.Fatalf("unqualified tree join: %d rows, want %d", res.Rows, d.NumPatients)
	}
}

func TestPlanValidationErrors(t *testing.T) {
	pl, _ := planner(t, 10, 3, derby.ClassCluster, CostBased)
	bad := []string{
		`select x.a from x in Nowhere`,
		`select p.bogus from p in Providers`,
		`select p.name from p in Providers where q.upin < 3`,
		`select p.name, pa.age from p in Providers, pa in p.bogus`,
		`select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn > 3`,
		`select p.name from p in Providers, pa in p.clients`,
		`select p.name, p.upin from p in Providers, pa in p.clients`,
		`select a.x from a in Providers, b in Providers, c in Providers`,
		`select p.name from p in Providers where p.upin < 3 and p.upin < 4 and q.z = 1`,
	}
	for _, src := range bad {
		ast, err := Parse(src)
		if err != nil {
			continue // some are syntax-level
		}
		if _, err := pl.Plan(ast); err == nil {
			t.Fatalf("Plan(%q) accepted", src)
		}
	}
}

func TestExplainMentionsAlternatives(t *testing.T) {
	pl, _ := planner(t, 20, 5, derby.ClassCluster, CostBased)
	ast, _ := Parse(`select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 10 and p.upin < 10`)
	plan, err := pl.Plan(ast)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, alg := range []string{"PHJ", "CHJ", "NOJOIN", "NL", "cost-based"} {
		if !strings.Contains(out, alg) {
			t.Fatalf("Explain missing %s:\n%s", alg, out)
		}
	}
}

func TestEnableHHJWidensSearchSpace(t *testing.T) {
	pl, _ := planner(t, 20, 5, derby.ClassCluster, CostBased)
	pl.EnableHHJ = true
	ast, _ := Parse(`select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 10 and p.upin < 10`)
	plan, err := pl.Plan(ast)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Estimates) != 5 {
		t.Fatalf("estimates with HHJ: %+v", plan.Estimates)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestAggregates(t *testing.T) {
	pl, d := planner(t, 20, 50, derby.ClassCluster, CostBased)
	n := int64(d.NumPatients)
	// mrn is dense 1..N: sum/min/max/avg over mrn < 101 are exact.
	pl.DB.ColdRestart()
	res, err := pl.Query(`select sum(pa.mrn), min(pa.mrn), max(pa.mrn), avg(pa.mrn), count(pa.mrn)
		from pa in Patients where pa.mrn < 101`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 100 {
		t.Fatalf("rows = %d", res.Rows)
	}
	if len(res.Aggregates) != 5 {
		t.Fatalf("aggregates: %v", res.Aggregates)
	}
	want := []struct {
		label string
		value float64
	}{
		{"sum(mrn)", 5050},
		{"min(mrn)", 1},
		{"max(mrn)", 100},
		{"avg(mrn)", 50.5},
		{"count(mrn)", 100},
	}
	for i, w := range want {
		got := res.Aggregates[i]
		if got.Label != w.label || got.Value != w.value {
			t.Fatalf("agg %d = %+v, want %+v", i, got, w)
		}
	}
	_ = n
}

func TestAggregateOverEmptySelection(t *testing.T) {
	pl, _ := planner(t, 10, 5, derby.ClassCluster, CostBased)
	pl.DB.ColdRestart()
	res, err := pl.Query(`select min(pa.age), avg(pa.age) from pa in Patients where pa.mrn < 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 {
		t.Fatalf("rows = %d", res.Rows)
	}
	for _, a := range res.Aggregates {
		if a.Value != 0 {
			t.Fatalf("empty aggregate %+v", a)
		}
	}
}

func TestAggregateValidation(t *testing.T) {
	pl, _ := planner(t, 10, 5, derby.ClassCluster, CostBased)
	bad := []string{
		`select sum(pa.age), pa.name from pa in Patients`,                                  // mixed
		`select sum(pa.name) from pa in Patients`,                                          // non-integer
		`select sum(p.upin), pa.age from p in Providers, pa in p.clients where pa.mrn < 5`, // tree agg
	}
	for _, src := range bad {
		ast, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := pl.Plan(ast); err == nil {
			t.Fatalf("Plan(%q) accepted", src)
		}
	}
	// Aggregate round-trips through String.
	q, err := Parse(`select sum(pa.age) from pa in Patients`)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != `select sum(pa.age) from pa in Patients` {
		t.Fatalf("String: %q", q.String())
	}
	if _, err := Parse(`select sum(pa.age from pa in Patients`); err == nil {
		t.Fatal("unclosed aggregate accepted")
	}
}

// TestHistogramSelectivityOnSkewedData verifies the planner's statistics
// answer the paper's "what statistics should the system maintain": on a
// skewed key distribution the equi-depth histogram estimate is accurate
// where a uniform min/max assumption is off by orders of magnitude.
func TestHistogramSelectivityOnSkewedData(t *testing.T) {
	db := engineDB(t)
	cls := objectClass()
	ext, err := db.CreateExtent("Skewed", cls, "skewed")
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := db.CreateIndex(ext, "v", false)
	if err != nil {
		t.Fatal(err)
	}
	// 90% of keys in [0,100), 10% spread to 1e6.
	for i := 0; i < 5000; i++ {
		v := int64(i % 100)
		if i%10 == 0 {
			v = int64(i) * 200
		}
		if _, err := db.Insert(nil, ext, []object.Value{object.IntValue(v)}); err != nil {
			t.Fatal(err)
		}
	}
	pl := &Planner{DB: db, Strategy: CostBased}
	got := pl.estimateSelectivity(ix, selection.Pred{Attr: "v", Op: selection.Lt, K: 100})
	if got < 0.80 || got > 0.95 {
		t.Fatalf("histogram selectivity = %v, want ≈0.9", got)
	}
	// And the uniform assumption would have said ~0.0001.
	if uniform := 100.0 / 1e6; got < uniform*100 {
		t.Fatalf("estimate %v indistinguishable from uniform %v", got, uniform)
	}
}

func TestOrderBy(t *testing.T) {
	pl, _ := planner(t, 20, 50, derby.ClassCluster, CostBased)
	pl.DB.ColdRestart()
	res, err := pl.Query(`select pa.name, pa.age from pa in Patients where pa.mrn < 51 order by pa.age desc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 50 || len(res.Sample) != 50 {
		t.Fatalf("rows=%d sample=%d", res.Rows, len(res.Sample))
	}
	for i := 1; i < len(res.Sample); i++ {
		if res.Sample[i][1].Int > res.Sample[i-1][1].Int {
			t.Fatalf("sample not descending at %d: %v > %v", i, res.Sample[i][1].Int, res.Sample[i-1][1].Int)
		}
	}
	// Ascending, with the order attribute NOT projected (hidden).
	pl.DB.ColdRestart()
	res, err = pl.Query(`select pa.name from pa in Patients where pa.mrn < 51 order by pa.age`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample) != 50 || len(res.Sample[0]) != 1 {
		t.Fatalf("hidden order column leaked: %v", res.Sample[0])
	}
	if res.Sample[0][0].Kind != object.KindString {
		t.Fatalf("sample cell kind: %v", res.Sample[0][0].Kind)
	}
	// The sort is charged.
	if res.Counters.SortSteps == 0 {
		t.Fatal("order by charged no sort")
	}
	// Round trip the clause.
	q, err := Parse(`select pa.name from pa in Patients where pa.mrn < 5 order by pa.age desc`)
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderBy == nil || !q.OrderBy.Desc {
		t.Fatalf("OrderBy: %+v", q.OrderBy)
	}
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
}

func TestOrderByValidation(t *testing.T) {
	pl, _ := planner(t, 10, 5, derby.ClassCluster, CostBased)
	for _, src := range []string{
		`select sum(pa.age) from pa in Patients order by pa.age`,
		`select count(*) from pa in Patients order by pa.age`,
		`select pa.name from pa in Patients order by pa.name`,
		`select pa.name from pa in Patients order by pa.bogus`,
		`select p.name, pa.age from p in Providers, pa in p.clients order by pa.age`,
	} {
		ast, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := pl.Plan(ast); err == nil {
			t.Fatalf("Plan(%q) accepted", src)
		}
	}
	if _, err := Parse(`select a.b from a in B order pa.age`); err == nil {
		t.Fatal("missing 'by' accepted")
	}
}

func TestSampleRows(t *testing.T) {
	pl, _ := planner(t, 20, 50, derby.ClassCluster, CostBased)
	pl.DB.ColdRestart()
	res, err := pl.Query(`select pa.mrn, pa.sex from pa in Patients where pa.mrn < 11`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample) != 10 || res.SampleTruncated {
		t.Fatalf("sample: %d truncated=%v", len(res.Sample), res.SampleTruncated)
	}
	seen := map[int64]bool{}
	for _, row := range res.Sample {
		if len(row) != 2 || row[0].Kind != object.KindInt || row[1].Kind != object.KindChar {
			t.Fatalf("row shape: %v", row)
		}
		seen[row[0].Int] = true
	}
	if len(seen) != 10 {
		t.Fatalf("mrn values: %v", seen)
	}
	// count(*) produces no sample.
	pl.DB.ColdRestart()
	res, _ = pl.Query(`select count(*) from pa in Patients where pa.mrn < 11`)
	if len(res.Sample) != 0 {
		t.Fatal("count(*) produced a sample")
	}
}
