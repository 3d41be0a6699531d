package oql

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/join"
	"treebench/internal/selection"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Strategy selects the optimizer's search strategy.
type Strategy int

const (
	// Heuristic caricatures the legacy O2 optimizer (§2): use an index
	// when one exists — without sorting its Rids — and prefer navigation
	// down the hierarchy. "As expected, this implies that 'best' is
	// sometimes rather bad."
	Heuristic Strategy = iota
	// CostBased estimates each alternative with the calibrated cost
	// model — the strategy the paper set out to build — and picks the
	// cheapest.
	CostBased
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Heuristic:
		return "heuristic"
	case CostBased:
		return "cost-based"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// PlanKind distinguishes the two query shapes the subset supports.
type PlanKind int

const (
	// PlanSelection is a single-extent selection.
	PlanSelection PlanKind = iota
	// PlanTreeJoin is the §5 two-variable hierarchical query.
	PlanTreeJoin
)

// Estimate is one costed alternative considered by the planner.
type Estimate struct {
	Choice  string
	Seconds float64
}

// Plan is an executable plan plus the alternatives that were considered.
type Plan struct {
	Kind     PlanKind
	Query    *Query
	Strategy Strategy

	// Selection plans.
	Extent     *engine.Extent
	Access     selection.Access
	Where      selection.Pred
	Filters    []selection.Pred
	Projects   []string
	Aggregates []Aggregate // parallel to Projects; empty entries = plain
	CountOnly  bool
	// OrderAttr (with OrderDesc) asks the executor to sort the result;
	// OrderIdx is its position within Projects (appended as a hidden
	// projection if the query did not project it).
	OrderAttr   string
	OrderDesc   bool
	OrderIdx    int
	orderHidden bool

	// Tree-join plans.
	Env       *join.Env
	Algorithm join.Algorithm
	JoinQuery join.Query

	Estimates []Estimate

	// explain is the Explain text, rendered once by Planner.Plan.
	explain string
}

// OrderHidden reports whether the order-by column was appended as a hidden
// projection (not asked for by the query) and so is stripped from the
// sorted rows.
func (p *Plan) OrderHidden() bool { return p.orderHidden }

// Explain returns the plan and its costed alternatives as text: the
// rendering Planner.Plan made, or a fresh one for a plan built by hand.
func (p *Plan) Explain() string {
	if p.explain != "" {
		return p.explain
	}
	return p.render()
}

func (p *Plan) render() string {
	var b strings.Builder
	switch p.Kind {
	case PlanSelection:
		fmt.Fprintf(&b, "selection on %s via %s", p.Extent.Name, p.Access)
		if !p.Where.IsAlways() {
			fmt.Fprintf(&b, " where %s %s %d", p.Where.Attr, p.Where.Op, p.Where.K)
		}
	case PlanTreeJoin:
		fmt.Fprintf(&b, "tree join %s over %s (k1=%d, k2=%d) via %s",
			p.Env.Parent.Name, p.Env.Child.Name, p.JoinQuery.K1, p.JoinQuery.K2, p.Algorithm)
	}
	if p.OrderAttr != "" {
		fmt.Fprintf(&b, " order by %s", p.OrderAttr)
		if p.OrderDesc {
			b.WriteString(" desc")
		}
	}
	fmt.Fprintf(&b, " [%s]", p.Strategy)
	for _, e := range p.Estimates {
		fmt.Fprintf(&b, "\n  est %-12s %10.2fs", e.Choice, e.Seconds)
	}
	return b.String()
}

// Planner resolves and optimizes parsed queries against one database.
type Planner struct {
	DB       *engine.Database
	Strategy Strategy
	// EnableHHJ adds the hybrid-hash extension to the cost-based search
	// space (off by default: the paper's O2 did not have it).
	EnableHHJ bool
	// Cache, when set, memoizes compiled plans by query source (see
	// PlanSource). Plans depend on the database's statistics, so a cache
	// must not outlive or be shared across databases.
	Cache *PlanCache
}

// Plan analyzes and optimizes q. The plan's Explain text is rendered
// here, once: a cached plan serves every later execution with it.
func (pl *Planner) Plan(q *Query) (*Plan, error) {
	var (
		p   *Plan
		err error
	)
	switch len(q.Bindings) {
	case 1:
		p, err = pl.planSelection(q)
	case 2:
		p, err = pl.planTreeJoin(q)
	default:
		return nil, fmt.Errorf("oql: %d bindings unsupported (1 or 2)", len(q.Bindings))
	}
	if err != nil {
		return nil, err
	}
	p.explain = p.render()
	return p, nil
}

// resolveVar maps binding variables to extents.
type scope map[string]*engine.Extent

func (pl *Planner) buildScope(q *Query) (scope, error) {
	sc := scope{}
	for _, b := range q.Bindings {
		if _, dup := sc[b.Var]; dup {
			return nil, fmt.Errorf("oql: duplicate variable %q", b.Var)
		}
		if b.Extent != "" {
			e, err := pl.DB.Extent(b.Extent)
			if err != nil {
				return nil, fmt.Errorf("oql: unknown extent %q", b.Extent)
			}
			sc[b.Var] = e
			continue
		}
		parent, ok := sc[b.ParentVar]
		if !ok {
			return nil, fmt.Errorf("oql: binding %s references unknown variable %q", b, b.ParentVar)
		}
		ai := parent.Class.AttrIndex(b.ParentAttr)
		if ai < 0 {
			return nil, fmt.Errorf("oql: class %s has no attribute %q", parent.Class.Name, b.ParentAttr)
		}
		// The child extent is found through the set attribute's target;
		// in this engine the Derby clients set always targets the other
		// extent of the 1-n pair. Resolve it as "the extent whose class
		// holds a ref back" — or simply the only other extent-bound class
		// with a KindRef attribute. We search registered extents for one
		// whose class is not the parent's.
		child, err := pl.childExtentFor(parent, b.ParentAttr)
		if err != nil {
			return nil, err
		}
		sc[b.Var] = child
	}
	return sc, nil
}

// childExtentFor locates the extent the parent's set attribute points
// into, by sampling the first parent object's collection (a real system
// would read this from the schema's typed relationships; our object model
// keeps set element types implicit, so the planner peeks at the data).
func (pl *Planner) childExtentFor(parent *engine.Extent, setAttr string) (*engine.Extent, error) {
	for _, name := range pl.DB.Extents() {
		e, err := pl.DB.Extent(name)
		if err != nil {
			return nil, err
		}
		if e == parent {
			continue
		}
		for _, a := range e.Class.Attrs {
			if a.Kind == refKind {
				return e, nil
			}
		}
	}
	return nil, fmt.Errorf("oql: cannot resolve element extent of %s.%s", parent.Class.Name, setAttr)
}

func (pl *Planner) planSelection(q *Query) (*Plan, error) {
	sc, err := pl.buildScope(q)
	if err != nil {
		return nil, err
	}
	b := q.Bindings[0]
	if b.Extent == "" {
		return nil, fmt.Errorf("oql: single binding must range over an extent")
	}
	ext := sc[b.Var]
	plan := &Plan{Kind: PlanSelection, Query: q, Strategy: pl.Strategy, Extent: ext, CountOnly: q.CountStar}

	// Projections: attributes of the single variable, optionally wrapped
	// in aggregates. Aggregates and plain projections cannot mix (there is
	// no grouping in this subset).
	if !q.CountStar {
		if q.HasAggregates() {
			for _, proj := range q.Projections {
				if proj.Agg == AggNone {
					return nil, fmt.Errorf("oql: cannot mix aggregates and plain projections")
				}
			}
		}
		for _, proj := range q.Projections {
			if proj.Path.Var != b.Var || len(proj.Path.Attrs) != 1 {
				return nil, fmt.Errorf("oql: projection %s must be a single attribute of %s", proj, b.Var)
			}
			ai := ext.Class.AttrIndex(proj.Path.Attrs[0])
			if ai < 0 {
				return nil, fmt.Errorf("oql: class %s has no attribute %q", ext.Class.Name, proj.Path.Attrs[0])
			}
			if proj.Agg != AggNone && proj.Agg != AggCount {
				if k := ext.Class.Attrs[ai].Kind; k != intKind && k != charKind {
					return nil, fmt.Errorf("oql: %s over non-integer attribute %s", proj.Agg, proj.Path)
				}
			}
			plan.Projects = append(plan.Projects, proj.Path.Attrs[0])
			plan.Aggregates = append(plan.Aggregates, proj.Agg)
		}
	}

	// Predicates: all must bind the variable; pick the best indexed one
	// as the access predicate.
	var preds []selection.Pred
	for _, c := range q.Where {
		if c.Path.Var != b.Var || len(c.Path.Attrs) != 1 {
			return nil, fmt.Errorf("oql: predicate %s must test one attribute of %s", c, b.Var)
		}
		preds = append(preds, selection.Pred{Attr: c.Path.Attrs[0], Op: c.Op, K: c.K})
	}
	// Order by: selections only, never under aggregation.
	if q.OrderBy != nil {
		if q.CountStar || q.HasAggregates() {
			return nil, fmt.Errorf("oql: order by cannot combine with aggregates")
		}
		ob := q.OrderBy
		if ob.Path.Var != b.Var || len(ob.Path.Attrs) != 1 {
			return nil, fmt.Errorf("oql: order by %s must name one attribute of %s", ob.Path, b.Var)
		}
		ai := ext.Class.AttrIndex(ob.Path.Attrs[0])
		if ai < 0 {
			return nil, fmt.Errorf("oql: class %s has no attribute %q", ext.Class.Name, ob.Path.Attrs[0])
		}
		if k := ext.Class.Attrs[ai].Kind; k != intKind && k != charKind {
			return nil, fmt.Errorf("oql: order by non-integer attribute %s", ob.Path)
		}
		plan.OrderAttr = ob.Path.Attrs[0]
		plan.OrderDesc = ob.Desc
		plan.OrderIdx = -1
		for i, a := range plan.Projects {
			if a == plan.OrderAttr {
				plan.OrderIdx = i
			}
		}
		if plan.OrderIdx < 0 {
			plan.OrderIdx = len(plan.Projects)
			plan.Projects = append(plan.Projects, plan.OrderAttr)
			plan.Aggregates = append(plan.Aggregates, AggNone)
			plan.orderHidden = true
		}
	}

	bestIdx := -1
	bestSel := math.MaxFloat64
	for i, pr := range preds {
		ix := pl.DB.IndexOn(ext.Name, pr.Attr)
		if ix == nil {
			continue
		}
		if _, _, ok := pr.KeyRange(); !ok {
			continue
		}
		sel := pl.estimateSelectivity(ix, pr)
		if sel < bestSel {
			bestSel = sel
			bestIdx = i
		}
	}
	for i, pr := range preds {
		if i == bestIdx {
			plan.Where = pr
		} else {
			plan.Filters = append(plan.Filters, pr)
		}
	}

	// Cost the alternatives.
	rows := float64(ext.Count)
	for _, pr := range preds {
		rows *= pl.predSelectivity(ext, pr)
	}
	plan.Estimates = append(plan.Estimates,
		pl.estimate(string(selection.FullScan), pl.costFullScan(ext, rows)))
	if bestIdx >= 0 {
		matched := float64(ext.Count) * bestSel
		plan.Estimates = append(plan.Estimates,
			pl.estimate(string(selection.IndexScan), pl.costIndexScan(ext, matched, rows, false)),
			pl.estimate(string(selection.SortedIndexScan), pl.costIndexScan(ext, matched, rows, true)))
	}

	switch {
	case bestIdx < 0:
		plan.Access = selection.FullScan
	case pl.Strategy == Heuristic:
		// The legacy behavior: an index always looks attractive, and
		// nobody sorts the Rids.
		plan.Access = selection.IndexScan
	default:
		plan.Access = cheapest(plan.Estimates)
	}
	return plan, nil
}

func cheapest(ests []Estimate) selection.Access {
	// Ties go to the later alternative: the list orders plans from naive
	// to robust (scan, unsorted index, sorted index), and at equal
	// estimated cost the robust one never loses.
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Seconds <= best.Seconds {
			best = e
		}
	}
	return selection.Access(best.Choice)
}

func (pl *Planner) planTreeJoin(q *Query) (*Plan, error) {
	sc, err := pl.buildScope(q)
	if err != nil {
		return nil, err
	}
	pb, cb := q.Bindings[0], q.Bindings[1]
	if pb.Extent == "" || cb.ParentVar != pb.Var {
		return nil, fmt.Errorf("oql: tree query must bind `%s in <Extent>, %s in %s.<set>`", pb.Var, cb.Var, pb.Var)
	}
	parent, child := sc[pb.Var], sc[cb.Var]

	env := &join.Env{
		DB:          pl.DB,
		Parent:      parent,
		Child:       child,
		SetAttr:     cb.ParentAttr,
		NumParents:  parent.Count,
		NumChildren: child.Count,
	}
	// Locate the child's back reference.
	for _, a := range child.Class.Attrs {
		if a.Kind == refKind {
			env.ParentRefAttr = a.Name
			break
		}
	}
	if env.ParentRefAttr == "" {
		return nil, fmt.Errorf("oql: class %s has no reference back to %s", child.Class.Name, parent.Class.Name)
	}
	env.Composition = parent.File == child.File && !childKeyLooksClustered(pl.DB, child)

	// Predicates: at most one `var.attr < k` per variable.
	k1 := int64(env.NumChildren) + 1
	k2 := int64(env.NumParents) + 1
	for _, c := range q.Where {
		if len(c.Path.Attrs) != 1 {
			return nil, fmt.Errorf("oql: predicate %s must test one attribute", c)
		}
		k := c.K
		switch c.Op {
		case selection.Lt:
		case selection.Le:
			k++
		default:
			return nil, fmt.Errorf("oql: tree queries support only < or <= predicates, got %s", c)
		}
		switch c.Path.Var {
		case pb.Var:
			env.ParentKeyAttr = c.Path.Attrs[0]
			k2 = k
		case cb.Var:
			env.ChildKeyAttr = c.Path.Attrs[0]
			k1 = k
		default:
			return nil, fmt.Errorf("oql: predicate %s binds unknown variable", c)
		}
	}
	// Unqualified sides still need an index to drive the scan: default to
	// the clustered key indexes.
	if env.ParentKeyAttr == "" {
		env.ParentKeyAttr, err = pl.defaultKeyAttr(parent)
		if err != nil {
			return nil, err
		}
	}
	if env.ChildKeyAttr == "" {
		env.ChildKeyAttr, err = pl.defaultKeyAttr(child)
		if err != nil {
			return nil, err
		}
	}

	// Projections: one attribute of each variable (or count(*)).
	if q.CountStar {
		env.ParentProj = env.ParentKeyAttr
		env.ChildProj = env.ChildKeyAttr
	} else {
		if q.HasAggregates() {
			return nil, fmt.Errorf("oql: aggregates are not supported over tree queries (use count(*))")
		}
		if q.OrderBy != nil {
			return nil, fmt.Errorf("oql: order by is not supported over tree queries")
		}
		if len(q.Projections) != 2 {
			return nil, fmt.Errorf("oql: tree queries project exactly one attribute per variable (f(p,pa))")
		}
		for _, proj := range q.Projections {
			if len(proj.Path.Attrs) != 1 {
				return nil, fmt.Errorf("oql: projection %s must be a single attribute", proj)
			}
			switch proj.Path.Var {
			case pb.Var:
				env.ParentProj = proj.Path.Attrs[0]
			case cb.Var:
				env.ChildProj = proj.Path.Attrs[0]
			default:
				return nil, fmt.Errorf("oql: projection %s binds unknown variable", proj)
			}
		}
		if env.ParentProj == "" || env.ChildProj == "" {
			return nil, fmt.Errorf("oql: tree queries project one attribute of each variable")
		}
	}

	jq := join.Query{K1: k1, K2: k2}
	plan := &Plan{
		Kind: PlanTreeJoin, Query: q, Strategy: pl.Strategy,
		Env: env, JoinQuery: jq,
	}
	plan.Estimates = pl.costTreeJoin(env, jq)
	if pl.Strategy == Heuristic {
		// Navigation bias of the legacy optimizer.
		plan.Algorithm = join.NL
	} else {
		best := plan.Estimates[0]
		for _, e := range plan.Estimates[1:] {
			if e.Seconds < best.Seconds {
				best = e
			}
		}
		plan.Algorithm = join.Algorithm(best.Choice)
	}
	return plan, nil
}

// defaultKeyAttr picks an indexed attribute to drive an unqualified scan.
func (pl *Planner) defaultKeyAttr(e *engine.Extent) (string, error) {
	for _, ix := range e.Indexes() {
		if ix.Clustered {
			return ix.Attr, nil
		}
	}
	if ixs := e.Indexes(); len(ixs) > 0 {
		return ixs[0].Attr, nil
	}
	return "", fmt.Errorf("oql: extent %s has no index to drive the scan", e.Name)
}

func childKeyLooksClustered(db *engine.Database, child *engine.Extent) bool {
	for _, ix := range child.Indexes() {
		if ix.Clustered {
			return true
		}
	}
	return false
}

// ---- Cost model -----------------------------------------------------------
//
// The estimator the paper wanted to elicit: each alternative predicts the
// events it will charge (a sim.Expected, driven by page counts, cache
// geometry, uniform-key selectivity estimates, and the hash-memory budget),
// and sim prices that vector with the table it prices measured counters by.

func (pl *Planner) estimateSelectivity(ix *engine.Index, pr selection.Pred) float64 {
	lo, hi, ok := pr.KeyRange()
	if !ok {
		return 1
	}
	// Equi-depth histogram statistics, built lazily (the "what statistics
	// should the system maintain" answer); fall back to a uniform min/max
	// model if they cannot be built.
	if h, err := ix.Stats(pl.DB.Client); err == nil && h != nil {
		return h.Selectivity(lo, hi)
	}
	minK, okMin, err := ix.Backend.MinKey(pl.DB.Client)
	if err != nil || !okMin {
		return 1
	}
	maxK, okMax, err := ix.Backend.MaxKey(pl.DB.Client)
	if err != nil || !okMax || maxK <= minK {
		return 1
	}
	if lo < minK {
		lo = minK
	}
	if hi > maxK+1 {
		hi = maxK + 1
	}
	if hi <= lo {
		return 0
	}
	return float64(hi-lo) / float64(maxK-minK+1)
}

// predSelectivity estimates any predicate: indexed ones via key stats,
// others with the classic 1/3 default.
func (pl *Planner) predSelectivity(e *engine.Extent, pr selection.Pred) float64 {
	if ix := pl.DB.IndexOn(e.Name, pr.Attr); ix != nil {
		return pl.estimateSelectivity(ix, pr)
	}
	if pr.Op == selection.Eq {
		return 1 / math.Max(float64(e.Count), 1)
	}
	return 1.0 / 3
}

func (pl *Planner) pagesOf(e *engine.Extent) float64 { return float64(e.File.NumPages()) }

func (pl *Planner) cachePages() float64 {
	return float64(pl.DB.Machine.ClientCache / storage.PageSize)
}

// randomFetchPages estimates page reads for n random object fetches over a
// file of p pages with a cache of c pages: the distinct pages touched when
// the file fits the cache, and the steady-state miss stream otherwise.
func randomFetchPages(n, p, c float64) float64 {
	if p <= 0 || n <= 0 {
		return 0
	}
	distinct := p * (1 - math.Exp(-n/p))
	if p <= c {
		return distinct
	}
	miss := n * (1 - c/p)
	return math.Max(distinct*(1-c/p), miss)
}

func leafPages(n float64) float64 {
	return n/(float64(index.LeafFanout)*0.9) + 2
}

// estimate prices an expected counter vector the way the session's meter
// prices counted ones.
func (pl *Planner) estimate(choice string, v sim.Expected) Estimate {
	return Estimate{choice, sim.Seconds(pl.DB.Meter, v)}
}

// costFullScan predicts the standard scan (Figure 8 left).
func (pl *Planner) costFullScan(e *engine.Extent, rows float64) sim.Expected {
	n := float64(e.Count)
	return sim.Expected{DiskReads: pl.pagesOf(e), ScanNexts: n, HandleGets: n, HandleUnrefs: n,
		AttrGets: n, Compares: n, ResultAppends: rows}
}

// costIndexScan predicts the (un)sorted index scan fetching `matched`
// objects of which `rows` survive residual filters.
func (pl *Planner) costIndexScan(e *engine.Extent, matched, rows float64, sorted bool) sim.Expected {
	p := pl.pagesOf(e)
	v := sim.Expected{DiskReads: leafPages(matched), HandleGets: matched, HandleUnrefs: matched,
		AttrGets: 2 * matched, ResultAppends: rows}
	if sorted {
		v.DiskReads += p * (1 - math.Exp(-matched/p))
		if matched > 1 {
			v.SortSteps = matched * math.Log2(matched)
		}
	} else {
		v.DiskReads += randomFetchPages(matched, p, pl.cachePages())
	}
	return v
}

// costTreeJoin estimates every §5.1 algorithm for the query.
func (pl *Planner) costTreeJoin(env *join.Env, q join.Query) []Estimate {
	np, nc := float64(env.NumParents), float64(env.NumChildren)
	selP := math.Min(1, math.Max(0, float64(q.K2-1)/math.Max(np, 1)))
	selC := math.Min(1, math.Max(0, float64(q.K1-1)/math.Max(nc, 1)))
	avg := nc / math.Max(np, 1)
	pp := pl.pagesOf(env.Parent)
	pc := pl.pagesOf(env.Child)
	cache := pl.cachePages()
	tuples := selP * selC * nc
	budget := float64(pl.DB.Machine.HashBudget)

	parentClustered := false
	if ix := pl.DB.IndexOn(env.Parent.Name, env.ParentKeyAttr); ix != nil {
		parentClustered = ix.Clustered
	}
	childClustered := false
	if ix := pl.DB.IndexOn(env.Child.Name, env.ChildKeyAttr); ix != nil {
		childClustered = ix.Clustered
	}
	// fetch predicts the pages read for a selected fraction of an extent,
	// either streaming pages in order or faulting randomly. Which one
	// applies depends on the access site, not just the index:
	//   - parents in parent-key order are sequential under class AND
	//     composition clustering (the clustered file is in upin order);
	//   - children in child-key order are sequential only when the child
	//     key index is clustered (class clustering);
	//   - children navigated from their parents are sequential only under
	//     composition clustering.
	fetch := func(sel, n, p float64, sequential bool) float64 {
		if sequential {
			return sel * p
		}
		return randomFetchPages(sel*n, p, cache)
	}
	parentSeq := parentClustered || env.Composition
	childSeq := childClustered

	// NL: parent index scan + parent fetch + navigate to every child of
	// every selected parent (streams under composition, faults otherwise).
	nl := sim.Expected{DiskReads: leafPages(selP*np) + fetch(selP, np, pp, parentSeq),
		HandleGets: selP*np + selP*nc, HandleUnrefs: selP*np + selP*nc,
		AttrGets: 2 * selP * nc, Compares: selP * nc, ResultAppends: tuples}
	if env.Composition {
		nl.DiskReads += selP * pc // children stream in with their parents
	} else {
		nl.DiskReads += randomFetchPages(selP*nc, pc, cache)
	}

	// NOJOIN: child index scan + child fetch + navigate to each child's
	// parent. Under composition the parent shares pages with its children:
	// no extra I/O.
	nj := sim.Expected{DiskReads: leafPages(selC*nc) + fetch(selC, nc, pc, childSeq),
		HandleGets: 2 * selC * nc, HandleUnrefs: 2 * selC * nc,
		AttrGets: 3 * selC * nc, Compares: selC * nc, ResultAppends: tuples}
	if !env.Composition {
		nj.DiskReads += randomFetchPages(selC*nc, pp, cache)
	}

	// Hash joins: both index scans + both fetches + table costs.
	base := sim.Expected{
		DiskReads: leafPages(selP*np) + fetch(selP, np, pp, parentSeq) +
			leafPages(selC*nc) + fetch(selC, nc, pc, childSeq),
		HandleGets: selP*np + selC*nc, HandleUnrefs: selP*np + selC*nc, ResultAppends: tuples}

	swapFrac := func(size float64) float64 {
		if size <= budget {
			return 0
		}
		return (size - budget) / size
	}
	phjTable := selP * np * 64
	fr := swapFrac(phjTable)
	phj := base
	phj.HashInserts, phj.HashProbes = selP*np, selC*nc
	phj.SwapWrites, phj.SwapReads = fr*selP*np, fr*selC*nc

	groups := np * (1 - math.Pow(1-selC, math.Max(avg, 0.001)))
	chjTable := groups*64 + selC*nc*8
	fr = swapFrac(chjTable)
	chj := base
	chj.HashInserts, chj.HashProbes = selC*nc, selP*np
	chj.SwapWrites, chj.SwapReads = fr*selC*nc, fr*(selP*np+selP*selC*nc)

	ests := []Estimate{
		pl.estimate(string(join.PHJ), phj),
		pl.estimate(string(join.CHJ), chj),
		pl.estimate(string(join.NOJOIN), nj),
		pl.estimate(string(join.NL), nl),
	}
	if pl.EnableHHJ {
		hhj := base
		hhj.HashInserts, hhj.HashProbes = selP*np, selC*nc
		if phjTable > budget*0.8 {
			spillFrac := 1 - budget*0.8/phjTable
			spillPages := (selP*np*24 + selC*nc*12) * spillFrac / float64(storage.PageSize)
			hhj.DiskWrites = spillPages
			hhj.DiskReads += spillPages
		}
		ests = append(ests, pl.estimate(string(join.HHJ), hhj))
	}
	sort.SliceStable(ests, func(i, j int) bool { return ests[i].Seconds < ests[j].Seconds })
	return ests
}
