package server

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/session"
	"treebench/internal/wire"
)

func testDBConfig() derby.Config {
	return derby.DefaultConfig(20, 20, derby.ClassCluster)
}

// testSource generates the test database afresh, uncached.
func testSource() (*derby.Snapshot, string, error) {
	return SnapshotSource(testDBConfig(), "")()
}

// startServer builds a server over a small deterministic database, installs
// the optional beforeExecute hook, and serves on a loopback listener. The
// cleanup drains the server and checks Serve returned ErrServerClosed.
func startServer(t *testing.T, mut func(*Config), hook func()) (*Server, string) {
	t.Helper()
	cfg := Config{
		Source:   testSource,
		Label:    "test db",
		Sessions: 2,
		MaxQueue: 16,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.beforeExecute = hook
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

const testStmt = "select pa.mrn, pa.age from pa in Patients where pa.mrn < 40"

// TestConcurrentSessions runs 8 sessions against a smaller replica pool:
// every session must be served, race-clean, and — because cold queries are
// deterministic on any replica — every rendered result must be identical.
func TestConcurrentSessions(t *testing.T) {
	srv, addr := startServer(t, func(c *Config) {
		c.Sessions = 4
		c.MaxQueue = 64
	}, nil)
	const sessions = 8
	results := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			defer cl.Close()
			var out strings.Builder
			for j := 0; j < 3; j++ {
				res, err := cl.Query(testStmt, client.QueryOptions{MaxRows: 5})
				if err != nil {
					t.Errorf("session %d query %d: %v", i, j, err)
					return
				}
				out.Reset()
				session.WriteResult(&out, res, 5)
			}
			results[i] = out.String()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < sessions; i++ {
		if results[i] != results[0] {
			t.Fatalf("session %d rendered differently:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
	st := srv.Stats()
	if st.Served != sessions*3 {
		t.Fatalf("served %d queries, want %d", st.Served, sessions*3)
	}
	if st.QueryErrors != 0 || st.Rejected != 0 || st.TimedOut != 0 {
		t.Fatalf("unexpected failures in stats: %+v", st)
	}
}

// TestRemoteMatchesLocal pins the tentpole guarantee: the same statement
// executed remotely and rendered by the client prints byte-identical output
// to a fresh local session over an identically generated database.
func TestRemoteMatchesLocal(t *testing.T) {
	_, addr := startServer(t, nil, nil)
	d, err := derby.Generate(testDBConfig())
	if err != nil {
		t.Fatal(err)
	}
	local := session.New(d.DB)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, stmt := range []string{
		testStmt,
		"select sum(pa.mrn), avg(pa.age) from pa in Patients where pa.mrn < 10",
		"select count(*) from p in Providers",
		"select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10",
	} {
		res, err := local.Execute(stmt)
		if err != nil {
			t.Fatalf("local %s: %v", stmt, err)
		}
		var want strings.Builder
		session.WriteResult(&want, session.ToWire(res, 10), 10)

		remote, err := cl.Query(stmt, client.QueryOptions{MaxRows: 10})
		if err != nil {
			t.Fatalf("remote %s: %v", stmt, err)
		}
		var got strings.Builder
		session.WriteResult(&got, remote, 10)
		if got.String() != want.String() {
			t.Fatalf("%s: remote render differs from local:\n%s\nvs\n%s", stmt, got.String(), want.String())
		}
	}
}

// TestQueryErrorKeepsSession checks a failing statement answers with
// CodeQuery and leaves the session usable.
func TestQueryErrorKeepsSession(t *testing.T) {
	_, addr := startServer(t, nil, nil)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query("select x.y from x in NoSuchExtent", client.QueryOptions{})
	se, ok := err.(*client.ServerError)
	if !ok || se.Code != wire.CodeQuery {
		t.Fatalf("want CodeQuery server error, got %v", err)
	}
	if _, err := cl.Query(testStmt, client.QueryOptions{}); err != nil {
		t.Fatalf("session unusable after query error: %v", err)
	}
}

// TestWarmSessionPinsReplica checks warm semantics: a session's second warm
// query runs against the caches its first one populated (zero page reads on
// this fully cacheable database), and per-query metering still holds.
func TestWarmSessionPinsReplica(t *testing.T) {
	_, addr := startServer(t, nil, nil)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first, err := cl.Query(testStmt, client.QueryOptions{Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Query(testStmt, client.QueryOptions{Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters.DiskReads == 0 {
		t.Fatal("first warm query should start from a cold-restarted session")
	}
	if second.Counters.DiskReads != 0 {
		t.Fatalf("warm rerun read %d pages, want 0", second.Counters.DiskReads)
	}
	if first.Rows != second.Rows {
		t.Fatalf("warm rerun changed rows: %d vs %d", second.Rows, first.Rows)
	}
}

// TestAdmissionQueueRejects fills the single admission slot with a blocked
// query and checks the next query is refused immediately with CodeBusy.
func TestAdmissionQueueRejects(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	srv, addr := startServer(t, func(c *Config) {
		c.Sessions = 1
		c.MaxQueue = 0
	}, func() {
		started <- struct{}{}
		<-gate
	})
	clA, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	aDone := make(chan error, 1)
	go func() {
		_, err := clA.Query(testStmt, client.QueryOptions{})
		aDone <- err
	}()
	<-started // A is executing and holds the only slot

	clB, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	_, err = clB.Query(testStmt, client.QueryOptions{})
	se, ok := err.(*client.ServerError)
	if !ok || se.Code != wire.CodeBusy {
		t.Fatalf("want CodeBusy while slot held, got %v", err)
	}

	close(gate)
	if err := <-aDone; err != nil {
		t.Fatalf("blocked query failed: %v", err)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestQueryTimeout checks an over-budget query answers CodeTimeout, and the
// admission slot comes back once the abandoned execution ends.
func TestQueryTimeout(t *testing.T) {
	gate := make(chan struct{})
	srv, addr := startServer(t, func(c *Config) {
		c.Sessions = 1
		c.QueryTimeout = 150 * time.Millisecond
	}, func() {
		<-gate
	})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query(testStmt, client.QueryOptions{})
	se, ok := err.(*client.ServerError)
	if !ok || se.Code != wire.CodeTimeout {
		t.Fatalf("want CodeTimeout, got %v", err)
	}
	close(gate) // let the abandoned execution finish; the reaper recycles
	if _, err := cl.Query(testStmt, client.QueryOptions{}); err != nil {
		t.Fatalf("query after timeout recovery: %v", err)
	}
	if got := srv.Stats().TimedOut; got != 1 {
		t.Fatalf("timed-out counter = %d, want 1", got)
	}
}

// TestGracefulDrain starts a long query, shuts down mid-flight, and checks:
// new connections are refused, idle sessions are disconnected, and the
// in-flight query still delivers its full result before the server exits.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	srv, addr := startServer(t, func(c *Config) { c.Sessions = 1 }, func() {
		started <- struct{}{}
		<-gate
	})

	idle, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	busy, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	type outcome struct {
		res *wire.Result
		err error
	}
	busyDone := make(chan outcome, 1)
	go func() {
		res, err := busy.Query(testStmt, client.QueryOptions{})
		busyDone <- outcome{res, err}
	}()
	<-started // the query is executing

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	for !srv.isDraining() {
		time.Sleep(time.Millisecond)
	}

	// The listener is closed: new sessions cannot connect.
	if _, err := client.Dial(addr, client.Options{ConnectTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded during drain")
	}
	// The idle session was force-closed.
	if err := idle.Ping(); err == nil {
		t.Fatal("idle session survived drain")
	}

	close(gate)
	out := <-busyDone
	if out.err != nil {
		t.Fatalf("in-flight query lost during drain: %v", out.err)
	}
	if out.res.Rows == 0 {
		t.Fatal("in-flight query returned an empty result")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained session is closed once its response is flushed.
	if _, err := busy.Query(testStmt, client.QueryOptions{}); err == nil {
		t.Fatal("session accepted work after drain")
	}
}

// TestServeAfterShutdown checks Serve on an already-drained server refuses
// immediately instead of accepting sessions it cannot serve.
func TestServeAfterShutdown(t *testing.T) {
	srv, err := New(Config{
		Source: testSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != ErrServerClosed {
		t.Fatalf("Serve after shutdown returned %v, want ErrServerClosed", err)
	}
}

// TestConfigValidation spot-checks New's rejection of broken configs and its
// defaulting of the permissive zero values.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing Source accepted")
	}
	if _, err := New(Config{Source: testSource, Sessions: -1}); err == nil {
		t.Fatal("negative sessions accepted")
	}
	if _, err := New(Config{Source: testSource, MaxQueue: -1}); err == nil {
		t.Fatal("negative queue accepted")
	}
	srv, err := New(Config{Source: testSource, Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cap(srv.sem) != 2 {
		t.Fatalf("admission width %d, want Sessions = 2", cap(srv.sem))
	}
	if srv.cfg.QueryTimeout != 30*time.Second {
		t.Fatalf("QueryTimeout not defaulted: %v", srv.cfg.QueryTimeout)
	}
}
