package persist

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"treebench/internal/bufpool"
	"treebench/internal/derby"
	"treebench/internal/session"
)

// bigSnapshot generates (once per test binary) a database large enough
// that a 1 MB pool — 256 frames — cannot hold its page image, so loads
// under that pool run with continuous eviction pressure.
func bigSnapshot(t testing.TB) *derby.Snapshot {
	t.Helper()
	bigSnapOnce.once.Do(func() {
		d, err := derby.Generate(derby.DefaultConfig(100, 100, derby.ClassCluster))
		if err == nil {
			bigSnapOnce.snap, err = d.Freeze()
		}
		bigSnapOnce.err = err
	})
	if bigSnapOnce.err != nil {
		t.Fatalf("generate: %v", bigSnapOnce.err)
	}
	return bigSnapOnce.snap
}

var bigSnapOnce struct {
	once sync.Once
	snap *derby.Snapshot
	err  error
}

// poolEquivStatements exercise every path the pool sits under: extent
// scans (aggregate and sample rows), index range scans, a sorted index
// scan, and the tree join.
var poolEquivStatements = []string{
	"select count(*) from pa in Patients",
	"select pa.mrn, pa.age from pa in Patients where pa.mrn < 40",
	"select sum(pa.mrn) from pa in Patients where pa.mrn < 2000",
	"select pa.name, pa.age from pa in Patients where pa.mrn < 51 order by pa.age desc",
	"select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10",
}

// renderPooled forks a session over snap at the given worker count and
// batch size and returns the concatenated rendered results — plans,
// rows, aggregates, and simulated meters included.
func renderPooled(t *testing.T, snap *derby.Snapshot, jobs, batch int) string {
	t.Helper()
	f := snap.Fork()
	f.DB.SetQueryJobs(jobs)
	f.DB.SetBatch(batch)
	s := session.New(f.DB)
	var buf bytes.Buffer
	for _, stmt := range poolEquivStatements {
		res, err := s.Execute(stmt)
		if err != nil {
			t.Fatalf("qj=%d batch=%d %q: %v", jobs, batch, stmt, err)
		}
		session.WriteResult(&buf, session.ToWire(res, 10), 10)
	}
	return buf.String()
}

// TestPoolConfigEquivalence pins the pool's central invariant: the buffer
// pool is a residency optimization and nothing else. Rendered output —
// simulated meters and tables — must be byte-identical across every
// pool size × readahead × worker count × batch size combination and both index
// backends, down to a 1 MB pool evicting on every scan, and identical to
// what the generated snapshot rendered before it was ever saved: an
// oracle with no file and no pool under it. Run under -race this also
// exercises fault/readahead/evict interleavings at the parallel worker
// counts. Reused frames are poisoned, so a frame reused while a session
// could still read it shows as a diverged render.
func TestPoolConfigEquivalence(t *testing.T) {
	defer bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	bufpool.PoisonRecycled(true)
	defer bufpool.PoisonRecycled(false)

	snaps := map[string]*derby.Snapshot{"btree": bigSnapshot(t)}
	if !testing.Short() {
		snaps["lsm"] = lsmSnapshot(t)
	}
	for backend, snap := range snaps {
		// Baseline: the eager in-memory image, batch-of-one single-worker
		// execution.
		want := renderPooled(t, snap, 1, 1)
		if want == "" {
			t.Fatal("baseline render empty")
		}
		path := filepath.Join(t.TempDir(), backend+".tbsp")
		if err := Save(path, snap); err != nil {
			t.Fatalf("save %s: %v", backend, err)
		}

		sawEviction, sawRecycle := false, false
		for _, cfg := range [][2]int{{1, 0}, {1, 32}, {256, 0}, {256, 32}} {
			poolMB, ra := cfg[0], cfg[1]
			bufpool.Setup(poolMB, ra)
			snapP, err := Load(path)
			if err != nil {
				t.Fatalf("load %s pool=%dMB ra=%d: %v", backend, poolMB, ra, err)
			}
			for _, jobs := range []int{1, 8} {
				for _, batch := range []int{1, 1024} {
					got := renderPooled(t, snapP, jobs, batch)
					if got != want {
						t.Errorf("%s pool=%dMB ra=%d qj=%d batch=%d: output diverged from the generated snapshot\n%s",
							backend, poolMB, ra, jobs, batch, firstMismatch(got, want))
					}
				}
			}
			if st := bufpool.Active().Stats(); st.Evictions > 0 {
				sawEviction = true
				sawRecycle = sawRecycle || st.Recycled > 0
			}
		}
		if backend == "btree" && !sawEviction {
			t.Error("no config ran under eviction pressure; grow the test snapshot or shrink the small pool")
		}
		if backend == "btree" && !sawRecycle {
			t.Error("no config reused an evicted frame: the poisoned oracle checked nothing")
		}
	}
}

// TestPoolSharedConcurrentSessions runs eight sessions with a mixed
// workload — half scanning, half doing point lookups — over ONE shared
// 1 MB pool under heavy eviction, and requires every session to render
// exactly the single-session baseline. With -race this is the pool's
// concurrency proof: faults, window reads and evictions from eight
// goroutines on shared frames, with byte-identity as the oracle. Reused
// frames are poisoned, and each session's reader holds back the reuse of
// what it may still read, so a frame one session reuses under another
// shows as a diverged render.
func TestPoolSharedConcurrentSessions(t *testing.T) {
	defer bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	bufpool.PoisonRecycled(true)
	defer bufpool.PoisonRecycled(false)

	snap := bigSnapshot(t)
	path := filepath.Join(t.TempDir(), "shared.tbsp")
	if err := Save(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	bufpool.Setup(1, 32)
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	scan := []string{
		"select count(*) from pa in Patients",
		"select sum(pa.mrn) from pa in Patients where pa.mrn < 2000",
	}
	point := []string{
		"select pa.age from pa in Patients where pa.mrn = 4321",
		"select pa.name from pa in Patients where pa.mrn = 17",
	}
	render1 := func(stmts []string) string {
		s := session.New(loaded.Fork().DB)
		var buf bytes.Buffer
		for _, stmt := range stmts {
			res, err := s.Execute(stmt)
			if err != nil {
				t.Fatalf("%q: %v", stmt, err)
			}
			session.WriteResult(&buf, session.ToWire(res, 10), 10)
		}
		return buf.String()
	}
	wantScan, wantPoint := render1(scan), render1(point)

	const sessions = 8
	const iters = 3
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stmts, want := scan, wantScan
			if i%2 == 1 {
				stmts, want = point, wantPoint
			}
			for it := 0; it < iters; it++ {
				s := session.New(loaded.Fork().DB)
				var buf bytes.Buffer
				for _, stmt := range stmts {
					res, err := s.Execute(stmt)
					if err != nil {
						errs[i] = fmt.Errorf("iter %d %q: %w", it, stmt, err)
						return
					}
					session.WriteResult(&buf, session.ToWire(res, 10), 10)
				}
				if got := buf.String(); got != want {
					errs[i] = fmt.Errorf("iter %d: output diverged under shared pool\n%s",
						it, firstMismatch(got, want))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	st := bufpool.Active().Stats()
	if st.Evictions == 0 {
		t.Error("shared-pool test ran without eviction pressure")
	}
	if st.Hits == 0 {
		t.Error("eight sessions over one pool recorded zero hits — sharing is not happening")
	}
	if st.Recycled == 0 {
		t.Error("no session reused an evicted frame: the poisoned oracle checked nothing")
	}
}

// firstMismatch locates the first differing line between two renders,
// with a little context — whole outputs are too big to dump.
func firstMismatch(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
