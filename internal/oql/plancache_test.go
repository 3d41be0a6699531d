package oql

import (
	"testing"

	"treebench/internal/derby"
)

// Len reports the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

// TestPlanCacheHitsSkipReplanning checks the hot path: the second
// PlanSource of the same text returns the identical *Plan without
// reparsing, hit/miss counters advance, and executing a cached plan
// yields the same rendered numbers as a fresh one.
func TestPlanCacheHitsSkipReplanning(t *testing.T) {
	pl, _ := planner(t, 20, 20, derby.ClassCluster, CostBased)
	pl.Cache = NewPlanCache(4)
	const src = "select count(*) from pa in Patients where pa.mrn < 100"

	p1, err := pl.PlanSource(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pl.PlanSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second PlanSource did not return the cached plan")
	}
	if h, m := pl.Cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", h, m)
	}

	pl.DB.ColdRestart()
	r1, err := pl.Execute(p1)
	if err != nil {
		t.Fatal(err)
	}
	pl.DB.ColdRestart()
	r2, err := pl.Execute(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows != r2.Rows || r1.Elapsed != r2.Elapsed || r1.Counters != r2.Counters {
		t.Fatalf("cached plan executed differently: %+v vs %+v", r1, r2)
	}
}

// TestPlanCacheKeyIncludesStrategy ensures a strategy or HHJ toggle never
// serves a plan chosen under different optimizer settings.
func TestPlanCacheKeyIncludesStrategy(t *testing.T) {
	pl, _ := planner(t, 20, 20, derby.ClassCluster, CostBased)
	pl.Cache = NewPlanCache(4)
	const src = "select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10"

	p1, err := pl.PlanSource(src)
	if err != nil {
		t.Fatal(err)
	}
	pl.Strategy = Heuristic
	p2, err := pl.PlanSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("strategy switch returned the cost-based cached plan")
	}
	if h, m := pl.Cache.Stats(); h != 0 || m != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 0/2", h, m)
	}
	// Back to cost-based: both entries live side by side.
	pl.Strategy = CostBased
	p3, err := pl.PlanSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("cost-based plan evicted by strategy-switched entry")
	}
}

// TestPlanCacheEvictsLRU pins the capacity contract: the least recently
// used query's plan leaves first.
func TestPlanCacheEvictsLRU(t *testing.T) {
	pl, _ := planner(t, 20, 20, derby.ClassCluster, CostBased)
	pl.Cache = NewPlanCache(2)
	queries := []string{
		"select count(*) from pa in Patients where pa.mrn < 10",
		"select count(*) from pa in Patients where pa.mrn < 20",
		"select count(*) from pa in Patients where pa.mrn < 30",
	}
	for _, q := range queries[:2] {
		if _, err := pl.PlanSource(q); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the first so the second becomes LRU, then overflow.
	if _, err := pl.PlanSource(queries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.PlanSource(queries[2]); err != nil {
		t.Fatal(err)
	}
	if pl.Cache.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", pl.Cache.Len())
	}
	h0, _ := pl.Cache.Stats()
	if _, err := pl.PlanSource(queries[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := pl.Cache.Stats(); h != h0+1 {
		t.Fatal("recently touched plan was evicted")
	}
	_, m0 := pl.Cache.Stats()
	if _, err := pl.PlanSource(queries[1]); err != nil {
		t.Fatal(err)
	}
	if _, m := pl.Cache.Stats(); m != m0+1 {
		t.Fatal("LRU plan survived past capacity")
	}
}
