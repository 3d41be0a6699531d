package oql

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"treebench/internal/join"
	"treebench/internal/object"
	"treebench/internal/selection"
	"treebench/internal/sim"
)

// Attribute kinds the analyzer tests against.
const (
	refKind  = object.KindRef
	intKind  = object.KindInt
	charKind = object.KindChar
)

// AggResult is one computed aggregate.
type AggResult struct {
	Label string
	Value float64
}

// SampleLimit caps how many result rows the executor materializes for
// display (ExecuteLimit takes a lower cap); the row count and costs always
// cover the full result.
const SampleLimit = 10000

// Row is one materialized result row (projected values in select-list
// order, hidden order-by projections stripped).
type Row []object.Value

// Result is the outcome of executing a plan.
type Result struct {
	Plan     *Plan
	Rows     int
	Elapsed  time.Duration
	Counters sim.Counters

	// Selection and Join carry the operator-level reports when relevant.
	Selection *selection.Result
	Join      *join.Result

	// Aggregates holds computed aggregate values, in projection order.
	Aggregates []AggResult

	// Sample holds the result's first rows, up to the execution's limit (in
	// order-by order when the plan sorts). SampleTruncated reports that more
	// rows matched than were kept.
	Sample          []Row
	SampleTruncated bool
}

// Execute runs the plan on the planner's database, materializing the first
// SampleLimit result rows. The caller decides the cache temperature (call
// db.ColdRestart() first for the paper's cold methodology).
func (pl *Planner) Execute(p *Plan) (*Result, error) {
	return pl.execute(p, SampleLimit)
}

// ExecuteLimit is Execute materializing only the first limit result rows
// (in order-by order when the plan sorts) — what a client that shows limit
// rows sees. A negative limit, or one above SampleLimit, means SampleLimit.
// Rows, aggregates and every simulated charge are Execute's.
func (pl *Planner) ExecuteLimit(p *Plan, limit int) (*Result, error) {
	if limit < 0 || limit > SampleLimit {
		limit = SampleLimit
	}
	return pl.execute(p, limit)
}

func (pl *Planner) execute(p *Plan, limit int) (*Result, error) {
	switch p.Kind {
	case PlanSelection:
		req := selection.Request{
			Extent:   p.Extent,
			Where:    p.Where,
			Filters:  p.Filters,
			Projects: p.Projects,
		}
		// Per-chunk accumulators: a full scan may fan out over the extent's
		// ScanChunks page ranges, so every chunk folds into private state and
		// the states merge in chunk-index order afterwards — which reproduces
		// the sequential scan's file order exactly. Index scans deliver every
		// row as chunk 0.
		nc := len(selection.ScanChunks(p.Extent))
		var aggChunks [][]*aggState
		var samples []sampler
		switch {
		case hasAgg(p.Aggregates):
			aggChunks = make([][]*aggState, nc)
			for c := range aggChunks {
				states := make([]*aggState, len(p.Aggregates))
				for i, a := range p.Aggregates {
					states[i] = &aggState{agg: a, label: string(a) + "(" + p.Projects[i] + ")"}
				}
				aggChunks[c] = states
			}
			// Fold each batch column-at-a-time into the chunk's states.
			req.OnBatch = func(chunk int, cols [][]object.Value, n int) error {
				for i, st := range aggChunks[chunk] {
					col := cols[i]
					for r := 0; r < n; r++ {
						st.add(col[r].Int)
					}
				}
				return nil
			}
		case len(p.Projects) > 0:
			samples = make([]sampler, nc)
			req.Key = -1
			if p.OrderAttr != "" {
				req.Key = p.OrderIdx
			}
			for c := range samples {
				samples[c] = sampler{limit: limit, key: req.Key, desc: p.OrderDesc}
			}
			req.Keep = func(chunk int, key object.Value) bool { return samples[chunk].wants(key) }
			req.OnBatch = func(chunk int, cols [][]object.Value, n int) error {
				for r := 0; r < n; r++ {
					samples[chunk].add(cols, r, n-r)
				}
				return nil
			}
		}
		sres, err := selection.Run(pl.DB, req, p.Access)
		if err != nil {
			return nil, err
		}
		var aggs []*aggState
		if aggChunks != nil {
			aggs = aggChunks[0]
			for _, states := range aggChunks[1:] {
				for i, st := range states {
					aggs[i].merge(st)
				}
			}
		}
		// Every chunk keeps a superset of its share of the result's first
		// limit rows: without an order-by those are the concatenation's
		// first limit rows; with one, the first limit after a stable sort
		// by key.
		sample := gather(samples, limit, p.OrderAttr == "")
		if p.OrderAttr != "" {
			sortRows(sample, p.OrderIdx, p.OrderDesc)
		}
		sample = sample[:min(len(sample), limit)]
		res := &Result{
			Plan: p, Rows: sres.Rows,
			Elapsed: sres.Elapsed, Counters: sres.Counters,
			Selection: sres,
		}
		for _, st := range aggs {
			res.Aggregates = append(res.Aggregates, st.result())
		}
		if p.OrderAttr != "" {
			// Sorting the result is charged over ALL matching rows, as
			// the system would; the sample is what we can show.
			pl.DB.Meter.Sort(int64(sres.Rows))
			if p.orderHidden {
				for i := range sample {
					sample[i] = sample[i][:len(sample[i])-1]
				}
			}
			res.Elapsed = pl.DB.Meter.Elapsed()
			res.Counters = pl.DB.Meter.Snapshot()
		}
		res.Sample = sample
		res.SampleTruncated = samples != nil && sres.Rows > len(sample)
		return res, nil
	case PlanTreeJoin:
		jres, err := join.Run(p.Env, p.Algorithm, p.JoinQuery)
		if err != nil {
			return nil, err
		}
		return &Result{
			Plan: p, Rows: jres.Tuples,
			Elapsed: jres.Elapsed, Counters: jres.Counters,
			Join: jres,
		}, nil
	default:
		return nil, fmt.Errorf("oql: unknown plan kind %d", p.Kind)
	}
}

// sampler is one chunk's share of the sample. Without an order key (key
// < 0) it keeps the chunk's first limit rows. With one it keeps the chunk's
// limit best rows by (key, scan position): rows collect in a buffer of
// twice the limit, and trim cuts a full buffer back to its best limit,
// keeping the dropped rows' storage for the rows that follow. Once trimmed,
// a row that cannot beat the limit-th best so far is refused before its
// values are decoded (selection.Request.Keep). Either way the chunk holds a
// superset of its share of the result's first limit rows, and only rows it
// admits are decoded.
type sampler struct {
	rows    []Row
	spare   []Row // storage of rows trim dropped
	slab    rowSlab
	limit   int
	key     int
	desc    bool
	trimmed bool // rows[:limit] are the best rows so far, sorted
	n       int  // rows wants promised (key < 0)
}

// wants reports whether the chunk admits its next selected row, whose
// order key is k. Without a key it promises the row a place. With one it
// refuses a row that cannot beat the worst row the last trim kept: every
// kept row has a key at least as good and an earlier scan position.
func (s *sampler) wants(k object.Value) bool {
	switch {
	case s.key < 0:
		if s.n == s.limit {
			return false
		}
		s.n++
		return true
	case s.trimmed:
		worst := s.rows[s.limit-1][s.key].Int
		if s.desc {
			return k.Int > worst
		}
		return k.Int < worst
	}
	return s.limit > 0
}

// add appends row r of a delivered batch (cols transposed) to the chunk;
// coming is how many rows the batch still delivers, this one included.
func (s *sampler) add(cols [][]object.Value, r, coming int) {
	var row Row
	if n := len(s.spare); n > 0 {
		row, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		room := s.limit - len(s.rows)
		if s.key >= 0 {
			room += s.limit
		}
		row = s.slab.next(len(cols), min(coming, room))
	}
	for j := range cols {
		row[j] = cols[j][r]
	}
	s.rows = append(s.rows, row)
	if s.key >= 0 && len(s.rows) == 2*s.limit {
		s.trim()
	}
}

// trim keeps the chunk's limit best rows, in (key, scan position) order.
// Rows arrive in scan order behind the ones the last trim sorted, so a
// stable sort by key is that order.
func (s *sampler) trim() {
	sortRows(s.rows, s.key, s.desc)
	s.spare = append(s.spare, s.rows[s.limit:]...)
	s.rows = s.rows[:s.limit]
	s.trimmed = true
}

// gather concatenates the chunks' kept rows in chunk order. A chunk's rows
// are in scan order, or in (key, scan position) order if it had to drop
// some; either way a stable sort by key of the concatenation puts ties in
// scan order. With prefix set only the first limit rows are wanted, and
// only those are gathered.
func gather(samples []sampler, limit int, prefix bool) []Row {
	total := 0
	for c := range samples {
		s := &samples[c]
		if s.key >= 0 && len(s.rows) > s.limit {
			s.trim()
		}
		total += len(s.rows)
	}
	if prefix {
		total = min(total, limit)
	}
	if total == 0 {
		return nil
	}
	out := make([]Row, 0, total)
	for c := range samples {
		part := samples[c].rows
		out = append(out, part[:min(len(part), total-len(out))]...)
	}
	return out
}

// sortRows stably sorts rows by the integer value in column idx — the
// order-by sort. Rows with equal keys keep their order, so rows in scan
// order come out in (key, scan position) order.
func sortRows(rows []Row, idx int, desc bool) {
	slices.SortStableFunc(rows, func(a, b Row) int {
		if desc {
			return cmp.Compare(b[idx].Int, a[idx].Int)
		}
		return cmp.Compare(a[idx].Int, b[idx].Int)
	})
}

// rowSlab cuts sample rows from shared blocks of values instead of making
// them one by one. A new block holds the rows the caller says are coming or
// twice the previous block, whichever is more, up to slabMaxRows: a result
// that arrives in one batch gets one block of exactly its size (a 500-row
// point selection allocates what its rows need, not the next power of two),
// and a selective scan that trickles a few rows per batch still allocates
// by the block, not by the batch.
type rowSlab struct {
	free      []object.Value // the newest block's unused tail
	blockRows int
}

const slabMaxRows = 1024

// next returns a new row, width values wide, for the caller to fill. coming
// is how many rows the caller is about to take, this one included.
func (s *rowSlab) next(width, coming int) Row {
	if len(s.free) < width {
		s.blockRows = min(max(2*s.blockRows, coming), slabMaxRows)
		s.free = make([]object.Value, s.blockRows*width)
	}
	row := Row(s.free[:width:width])
	s.free = s.free[width:]
	return row
}

// Query parses, plans and executes OQL text in one call, going through the
// plan cache when the planner has one.
func (pl *Planner) Query(src string) (*Result, error) {
	plan, err := pl.PlanSource(src)
	if err != nil {
		return nil, err
	}
	return pl.Execute(plan)
}

func hasAgg(aggs []Aggregate) bool {
	for _, a := range aggs {
		if a != AggNone {
			return true
		}
	}
	return false
}

// aggState folds one aggregate over the matching rows.
type aggState struct {
	agg   Aggregate
	label string
	n     int64
	sum   int64
	min   int64
	max   int64
}

func (s *aggState) add(v int64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// merge folds another chunk's state for the same aggregate into s. All five
// aggregates are commutative, but merging in chunk-index order keeps even
// intermediate states deterministic.
func (s *aggState) merge(o *aggState) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
}

// result computes the aggregate's value from the accumulated state.
func (s *aggState) result() AggResult {
	out := AggResult{Label: s.label}
	switch s.agg {
	case AggCount:
		out.Value = float64(s.n)
	case AggSum:
		out.Value = float64(s.sum)
	case AggMin:
		if s.n > 0 {
			out.Value = float64(s.min)
		}
	case AggMax:
		if s.n > 0 {
			out.Value = float64(s.max)
		}
	case AggAvg:
		if s.n > 0 {
			out.Value = float64(s.sum) / float64(s.n)
		}
	}
	return out
}
