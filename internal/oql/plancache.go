package oql

import (
	"sync"

	"treebench/internal/cache"
)

// DefaultPlanCacheSize is the plan-cache capacity sessions use unless
// configured otherwise: generously larger than any workload in the
// experiment suite, so repeated statements always hit.
const DefaultPlanCacheSize = 256

// planKey identifies a cached plan: the exact query source plus the
// optimizer configuration that shaped it. A planner with a different
// strategy (or search space) must not reuse another's plan.
type planKey struct {
	src      string
	strategy Strategy
	hhj      bool
}

// PlanCache is an LRU of compiled plans keyed by query source text. Plans
// are immutable once built (Execute only reads them), so one cached plan
// can serve any number of executions against the database it was planned
// for. The cache is safe for concurrent use: a daemon's sessions may share
// one per-database cache.
//
// Planning is pure CPU outside the simulated cost model — the statistics
// it reads are primed and cached — so a hit changes no simulated number;
// it only skips re-parsing and re-costing. Hit and miss counts are
// reported so servers can expose the rate (wire.Stats).
type PlanCache struct {
	mu     sync.Mutex
	lru    *cache.LRU[planKey, *Plan]
	hits   int64
	misses int64
}

// NewPlanCache returns a plan cache holding at most capacity plans
// (capacity < 1 selects DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{lru: cache.NewLRU[planKey, *Plan](capacity)}
}

func (pc *PlanCache) get(k planKey) (*Plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p, ok := pc.lru.Get(k)
	if ok {
		pc.hits++
	} else {
		pc.misses++
	}
	return p, ok
}

func (pc *PlanCache) put(k planKey, p *Plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.lru.Put(k, p)
}

// Stats reports the lifetime hit and miss counts.
func (pc *PlanCache) Stats() (hits, misses int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// PlanSource parses and plans OQL text, consulting the planner's plan
// cache when one is attached.
func (pl *Planner) PlanSource(src string) (*Plan, error) {
	var k planKey
	if pl.Cache != nil {
		k = planKey{src: src, strategy: pl.Strategy, hhj: pl.EnableHHJ}
		if p, ok := pl.Cache.get(k); ok {
			return p, nil
		}
	}
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := pl.Plan(ast)
	if err != nil {
		return nil, err
	}
	if pl.Cache != nil {
		pl.Cache.put(k, plan)
	}
	return plan, nil
}
