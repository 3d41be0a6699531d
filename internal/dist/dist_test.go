package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/join"
	"treebench/internal/oql"
	"treebench/internal/selection"
	"treebench/internal/server"
	"treebench/internal/session"
	"treebench/internal/wire"
)

// The test database is shaped so the distributed machinery actually
// engages: 1000 providers × ~20 patients ≈ 20000 children fan the patient
// extent out over multiple scan chunks (20000/4096), so a 3-shard split
// gives every shard real work — and, unlike a few-fat-providers shape, the
// cost model can be steered to every join algorithm (PHJ, CHJ, NOJOIN, NL)
// by selectivity alone.
func testConfig() derby.Config {
	return derby.DefaultConfig(1000, 20, derby.ClassCluster)
}

// sharedSnapshot generates and freezes the test database once per test
// binary; every shard server, coordinator, and single-node baseline forks
// from it — in-process, the "content-addressed provisioning" degenerates to
// literal sharing, which is the point of the snapshot design.
var (
	snapOnce sync.Once
	snapVal  *derby.Snapshot
	snapErr  error
)

func sharedSnapshot(t *testing.T) *derby.Snapshot {
	t.Helper()
	snapOnce.Do(func() {
		d, err := derby.Generate(testConfig())
		if err != nil {
			snapErr = err
			return
		}
		sn, err := d.Freeze()
		if err != nil {
			snapErr = err
			return
		}
		snapErr = sn.Engine.PrimeStats()
		snapVal = sn
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapVal
}

const testKey = "test-snapshot-key"

// startShard boots one in-process treebenchd as shard idx of cnt over the
// shared snapshot and returns its address and a func that stops it early.
// Shards run at engine.DefaultBatch, the only batch size a daemon has.
func startShard(t *testing.T, sn *derby.Snapshot, idx, cnt, qj int) (string, func()) {
	t.Helper()
	srv, err := server.New(server.Config{
		Source:      func() (*derby.Snapshot, string, error) { return sn, "shared", nil },
		Label:       "dist test db",
		Sessions:    4,
		MaxQueue:    64,
		QueryJobs:   qj,
		ShardIdx:    idx,
		ShardCnt:    cnt,
		SnapshotKey: testKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shard %d shutdown: %v", idx, err)
		}
		<-done
	})
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// startCoord boots a coordinator over the given shard addresses.
func startCoord(t *testing.T, sn *derby.Snapshot, addrs []string) string {
	t.Helper()
	co, err := New(Config{
		ShardAddrs:  addrs,
		Source:      func() (*derby.Snapshot, string, error) { return sn, "shared", nil },
		Label:       "dist test db",
		SnapshotKey: testKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Warm(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- co.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		<-done
	})
	return ln.Addr().String()
}

// testStatements returns the distributed smoke set plus, via a planning
// grid search over selectivity pairs, one cost-planned statement per hash
// join algorithm. The heuristic strategy always plans NL for tree joins, so
// NL coverage is guaranteed by flagging one statement heuristic.
type distStmt struct {
	src       string
	heuristic bool
	wantOp    string // non-empty: assert the executed operator
}

func testStatements(t *testing.T, sn *derby.Snapshot) []distStmt {
	t.Helper()
	stmts := []distStmt{
		// Full scans: unfiltered, filtered on an unindexed attribute,
		// aggregates, count(*), and an order-by with a hidden sort column.
		{src: "select pa.mrn, pa.age from pa in Patients", wantOp: string(selection.FullScan)},
		{src: "select pa.mrn, pa.age from pa in Patients where pa.age < 40", wantOp: string(selection.FullScan)},
		{src: "select avg(pa.age), min(pa.age), max(pa.age) from pa in Patients where pa.age < 60", wantOp: string(selection.FullScan)},
		{src: "select count(*) from pa in Patients"},
		{src: "select pa.mrn from pa in Patients where pa.age < 40 order by pa.age"},
		{src: "select pa.mrn, pa.age from pa in Patients where pa.age < 50 order by pa.age desc"},
		// Index selection: routed whole to one shard.
		{src: "select pa.age from pa in Patients where pa.mrn < 1000", wantOp: string(selection.IndexScan)},
		// NL via the heuristic strategy (always planned for tree joins).
		{src: treeJoin(sn, 50, 50), heuristic: true, wantOp: string(join.NL)},
	}
	// Grid-search selectivity pairs for cost-planned PHJ and CHJ (and keep
	// one NOJOIN as singleton-join coverage if it shows up).
	sess := session.NewWith(sn.Fork().DB, session.Config{})
	found := map[string]bool{}
	for _, k1pct := range []int{1, 2, 5, 10, 30, 50, 70, 90} {
		for _, k2pct := range []int{5, 10, 30, 50, 70, 90} {
			src := treeJoin(sn, k1pct, k2pct)
			plan, err := sess.Planner.PlanSource(src)
			if err != nil {
				t.Fatalf("planning %q: %v", src, err)
			}
			if plan.Kind != oql.PlanTreeJoin {
				continue
			}
			alg := string(plan.Algorithm)
			switch plan.Algorithm {
			case join.PHJ, join.CHJ, join.NOJOIN:
				if !found[alg] {
					found[alg] = true
					stmts = append(stmts, distStmt{src: src, wantOp: alg})
				}
			}
		}
	}
	for _, alg := range []join.Algorithm{join.PHJ, join.CHJ} {
		if !found[string(alg)] {
			t.Fatalf("no selectivity pair cost-plans %s; grid needs widening", alg)
		}
	}
	return stmts
}

func treeJoin(sn *derby.Snapshot, k1pct, k2pct int) string {
	d := sn.Fork()
	k1 := d.NumPatients * k1pct / 100
	k2 := d.NumProviders * k2pct / 100
	return fmt.Sprintf("select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < %d and p.upin < %d", k1, k2)
}

// TestDistributedDeterministic is the subsystem's acceptance gate: rendered
// tables and meter totals from a 3-shard cluster must be byte-identical to
// a single-node run, for full scans, index selections, and every
// distributed join strategy, across -qj 1/4 on both sides × batch 1/1024 on
// the local side (set through DB.SetBatch; the cluster runs at the
// constant engine.DefaultBatch).
func TestDistributedDeterministic(t *testing.T) {
	sn := sharedSnapshot(t)
	stmts := testStatements(t, sn)
	for _, cfg := range []struct{ qj, batch int }{
		{1, 1}, {1, 1024}, {4, 1}, {4, 1024},
	} {
		t.Run(fmt.Sprintf("qj%d_batch%d", cfg.qj, cfg.batch), func(t *testing.T) {
			const shards = 3
			addrs := make([]string, shards)
			for i := range addrs {
				addrs[i], _ = startShard(t, sn, i, shards, cfg.qj)
			}
			coord := startCoord(t, sn, addrs)
			cl, err := client.Dial(coord, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			local := session.NewWith(sn.Fork().DB, session.Config{QueryJobs: cfg.qj})
			local.DB.SetBatch(cfg.batch)
			covered := map[string]bool{}
			for _, st := range stmts {
				local.Planner.Strategy = oql.CostBased
				if st.heuristic {
					local.Planner.Strategy = oql.Heuristic
				}
				want, err := local.Execute(st.src)
				if err != nil {
					t.Fatalf("local %q: %v", st.src, err)
				}
				wantWire := session.ToWire(want, 10)
				got, err := cl.Query(st.src, client.QueryOptions{Heuristic: st.heuristic, MaxRows: 10})
				if err != nil {
					t.Fatalf("distributed %q: %v", st.src, err)
				}
				var wantBuf, gotBuf strings.Builder
				session.WriteResult(&wantBuf, wantWire, 10)
				session.WriteResult(&gotBuf, got, 10)
				if wantBuf.String() != gotBuf.String() {
					t.Fatalf("distributed rendering diverged for %q:\n--- local ---\n%s--- cluster ---\n%s",
						st.src, wantBuf.String(), gotBuf.String())
				}
				if got.Counters != want.Counters {
					t.Fatalf("counters diverged for %q:\nlocal   %+v\ncluster %+v", st.src, want.Counters, got.Counters)
				}
				if got.Elapsed != want.Elapsed {
					t.Fatalf("elapsed diverged for %q: local %v cluster %v", st.src, want.Elapsed, got.Elapsed)
				}
				if st.wantOp != "" {
					if !strings.Contains(got.Plan, "via "+st.wantOp) {
						t.Fatalf("statement %q executed via %q, want operator %s", st.src, got.Plan, st.wantOp)
					}
					covered[st.wantOp] = true
				}
			}
			for _, op := range []string{string(join.NL), string(join.PHJ), string(join.CHJ), string(selection.FullScan), string(selection.IndexScan)} {
				if !covered[op] {
					t.Fatalf("operator %s not covered", op)
				}
			}
		})
	}
}

// TestShardChunksPartition pins the ownership arithmetic: for any (n, N),
// the shard blocks are contiguous, in order, and cover every chunk exactly
// once — the property that makes shard-order merges equal chunk-order
// merges.
func TestShardChunksPartition(t *testing.T) {
	for n := 0; n <= 16; n++ {
		for N := 1; N <= 5; N++ {
			prev := 0
			for s := 0; s < N; s++ {
				lo, hi := engine.ShardChunks(n, s, N)
				if lo != prev {
					t.Fatalf("ShardChunks(%d, %d, %d) = [%d,%d): gap or overlap at %d", n, s, N, lo, hi, prev)
				}
				if hi < lo {
					t.Fatalf("ShardChunks(%d, %d, %d) = [%d,%d): negative block", n, s, N, lo, hi)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("ShardChunks(%d, *, %d) covers [0,%d), want [0,%d)", n, N, prev, n)
			}
		}
	}
	// Degenerate masks own everything.
	if lo, hi := engine.ShardChunks(8, 0, 0); lo != 0 || hi != 8 {
		t.Fatalf("unmasked ShardChunks = [%d,%d), want [0,8)", lo, hi)
	}
}

// TestShardDownTyped pins graceful degradation: with one shard of the
// cluster absent, a distributed query fails with the typed shard error
// naming the shard — it neither hangs nor misreports.
func TestShardDownTyped(t *testing.T) {
	sn := sharedSnapshot(t)
	const shards = 3
	addrs := make([]string, shards)
	for i := 0; i < shards-1; i++ {
		addrs[i], _ = startShard(t, sn, i, shards, 1)
	}
	// Shard 2 is a dead address: grab a listener and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs[shards-1] = ln.Addr().String()
	ln.Close()

	coord := startCoord(t, sn, addrs)
	cl, err := client.Dial(coord, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query("select pa.mrn, pa.age from pa in Patients", client.QueryOptions{})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeShard {
		t.Fatalf("query with a down shard returned %v, want CodeShard server error", err)
	}
	if !strings.Contains(se.Msg, "shard 2") {
		t.Fatalf("shard error does not name the shard: %q", se.Msg)
	}
}

// TestShardDownError pins the typed error's errors.Is/As contract.
func TestShardDownError(t *testing.T) {
	err := fmt.Errorf("scatter: %w", &ShardDownError{Shard: 1, Addr: "x:1", Err: errors.New("refused")})
	if !errors.Is(err, ErrShardDown) {
		t.Fatal("wrapped ShardDownError is not errors.Is(ErrShardDown)")
	}
	var sde *ShardDownError
	if !errors.As(err, &sde) || sde.Shard != 1 {
		t.Fatalf("errors.As failed: %v", err)
	}
}

// TestScatterIdentityValidated pins the shard-side identity check: a
// Scatter addressed to the wrong shard identity is refused with CodeShard,
// never silently executed with the wrong mask.
func TestScatterIdentityValidated(t *testing.T) {
	sn := sharedSnapshot(t)
	addr, _ := startShard(t, sn, 1, 3, 1)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Scatter(&wire.Scatter{Stmt: "select count(*) from pa in Patients", ShardIdx: 0, ShardCnt: 3})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeShard {
		t.Fatalf("misaddressed scatter returned %v, want CodeShard", err)
	}
}

// TestWarmRejected pins the cold-only discipline at the coordinator.
func TestWarmRejected(t *testing.T) {
	sn := sharedSnapshot(t)
	const shards = 2
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i], _ = startShard(t, sn, i, shards, 1)
	}
	coord := startCoord(t, sn, addrs)
	cl, err := client.Dial(coord, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query("select count(*) from pa in Patients", client.QueryOptions{Warm: true})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeQuery {
		t.Fatalf("warm distributed query returned %v, want CodeQuery rejection", err)
	}
}

// TestClusterStats exercises the coordinator's per-shard stats view: the
// shard map renders, every shard reports up with its identity, and the
// coordinator's own stats count the served queries. Once a shard's server
// stops, exactly that shard reports down with no stats.
func TestClusterStats(t *testing.T) {
	sn := sharedSnapshot(t)
	const shards = 2
	addrs := make([]string, shards)
	stops := make([]func(), shards)
	for i := range addrs {
		addrs[i], stops[i] = startShard(t, sn, i, shards, 1)
	}
	coord := startCoord(t, sn, addrs)
	cl, err := client.Dial(coord, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query("select count(*) from pa in Patients", client.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	cs, err := cl.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cs.Map, "shard map (2 shards") || !strings.Contains(cs.Map, "Patients") {
		t.Fatalf("shard map rendering: %q", cs.Map)
	}
	if len(cs.Shards) != shards {
		t.Fatalf("cluster stats cover %d shards, want %d", len(cs.Shards), shards)
	}
	for i, s := range cs.Shards {
		if !s.Up || s.Stats == nil {
			t.Fatalf("shard %d reported down: %+v", i, s)
		}
		if s.Stats.ShardIdx != int64(i) || s.Stats.ShardCnt != shards {
			t.Fatalf("shard %d announces identity %d/%d", i, s.Stats.ShardIdx, s.Stats.ShardCnt)
		}
		if s.Stats.Served == 0 {
			t.Fatalf("shard %d served nothing", i)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 1 || st.ShardCnt != shards || st.SnapshotSource != "coordinator" {
		t.Fatalf("coordinator stats: %+v", st)
	}

	stops[1]()
	cs, err = cl.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if s := cs.Shards[1]; s.Up || s.Stats != nil || s.Addr != addrs[1] {
		t.Fatalf("stopped shard 1 reported: %+v", s)
	}
	if s := cs.Shards[0]; !s.Up || s.Stats == nil || s.Stats.Served == 0 {
		t.Fatalf("live shard 0 reported: %+v", s)
	}
}
