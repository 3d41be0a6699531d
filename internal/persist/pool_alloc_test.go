package persist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"treebench/internal/bufpool"
	"treebench/internal/derby"
	"treebench/internal/oql"
	"treebench/internal/session"
)

// TestPoolMissAllocBudget is the allocation key of the pool's miss path:
// a cold count and a cold NL join, as a daemon connection runs them, over
// a saved 200×100 base read through a 1 MB pool — a few times smaller
// than the image, so every statement evicts and re-faults most of what it
// reads. Once the retired lists are warm a miss reuses an evicted frame
// and its buffer, so a statement allocates by the query, not by the page:
// the budgets are 1.25 times what the statements allocated when frames
// were first reused, the rule TestColdQueryAllocBudget (session) uses.
// Without reuse each miss allocates its frame and its 4 kB page (some 1 000
// objects and 2 MB a count, 19 000 and 40 MB an NL join). The session runs
// its chunks on one worker: with more workers than processors a worker
// preempted while online holds back reuse, and what a run allocates then
// depends on the scheduler.
func TestPoolMissAllocBudget(t *testing.T) {
	defer bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	sn := pressedDerby(t)
	s := session.NewWith(sn.Fork().DB, session.Config{PlanCache: oql.NewPlanCache(0), QueryJobs: 1})
	for _, q := range []struct {
		name, stmt  string
		objects, kb float64
	}{
		{"count", "select count(*) from pa in Patients", 30, 4.4},
		{"nl", pressedNL, 58, 13.9},
	} {
		run := func() {
			res, err := s.ExecuteRows(context.Background(), q.stmt, 10)
			if err != nil {
				t.Fatalf("%s: %v", q.stmt, err)
			}
			_ = session.ToWire(res, 10)
		}
		run()
		before := bufpool.Active().Stats()
		objects, bytes := allocsPerRun(5, run)
		st := bufpool.Active().Stats()
		misses := float64(st.Misses-before.Misses) / 5
		if misses < 100 {
			t.Errorf("%s: %.0f misses a run; the pool is not under pressure", q.name, misses)
		}
		if objects > q.objects || bytes/1024 > q.kb {
			t.Errorf("%s: a cold run allocated %.0f objects and %.1f kB, budget %.0f and %.1f kB (%s)",
				q.name, objects, bytes/1024, q.objects, q.kb, q.stmt)
		}
	}
}

const pressedProviders, pressedAvg = 200, 100

// pressedNL is the cold-query NL join over pressedDerby's database.
var pressedNL = fmt.Sprintf("select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < %d and p.upin < %d",
	pressedProviders*pressedAvg*95/100, pressedProviders*9/10)

// pressedDerby saves a 200×100 Derby database and loads it back through a
// new 1 MB pool, statistics primed. The caller restores the default pool.
func pressedDerby(t *testing.T) *derby.Snapshot {
	t.Helper()
	d, err := derby.Generate(derby.DefaultConfig(pressedProviders, pressedAvg, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "derby.tbsp")
	if err := Save(path, mem); err != nil {
		t.Fatal(err)
	}
	bufpool.Setup(1, bufpool.DefaultReadahead)
	sn, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Engine.PrimeStats(); err != nil {
		t.Fatal(err)
	}
	return sn
}

// stopAfter is a context whose deadline passes at the engine's second
// check: a statement under it reads its first batch's pages and stops.
type stopAfter struct {
	context.Context
	calls atomic.Int64
}

func (c *stopAfter) Done() <-chan struct{} { return closed }

func (c *stopAfter) Err() error {
	if c.calls.Add(1) > 1 {
		return context.DeadlineExceeded
	}
	return nil
}

var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// TestStoppedStatementLeavesNoReaderOnline: a statement its deadline
// stops mid-read takes its session's reader offline on the way out, so
// it holds back no reuse: an NL join on another session afterwards
// reuses more frames than the pool holds. A reader left online would cap
// that at the frames retired before it stopped, which the retired lists
// bound by the pool's capacity.
func TestStoppedStatementLeavesNoReaderOnline(t *testing.T) {
	defer bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	sn := pressedDerby(t)
	stopped := session.New(sn.Fork().DB)
	ctx := &stopAfter{Context: context.Background()}
	if _, err := stopped.ExecuteRows(ctx, "select pa.mrn, pa.age from pa in Patients where pa.mrn < 5000", 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the statement returned %v, want it stopped by its deadline", err)
	}
	if ctx.calls.Load() < 2 {
		t.Fatal("the statement never reached its second deadline check")
	}
	before := bufpool.Active().Stats()
	if _, err := session.NewWith(sn.Fork().DB, session.Config{QueryJobs: 1}).Execute(pressedNL); err != nil {
		t.Fatal(err)
	}
	st := bufpool.Active().Stats()
	misses, recycled := st.Misses-before.Misses, st.Recycled-before.Recycled
	if recycled <= st.CapacityPages {
		t.Fatalf("the NL join after a stopped statement reused %d frames for %d misses", recycled, misses)
	}
}

// allocsPerRun reports the heap objects and bytes one call of f
// allocates, averaged over runs calls, on one processor.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
