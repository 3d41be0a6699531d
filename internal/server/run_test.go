package server

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/oql"
	"treebench/internal/persist"
	"treebench/internal/wire"
)

// TestRunTimeout drives the one request path's deadline through each of
// its two callers. The hook holds the request until its deadline, and the
// engine — or, for a commit, the chain store before the WAL — stops it
// there: the client gets CodeTimeout and the timeout is counted; the
// admission slot came back with the answer, so a second connection is
// served at once instead of being refused CodeBusy; a commit left no
// version, no commit and no WAL record; and the connection's next query
// runs on a fresh session.
func TestRunTimeout(t *testing.T) {
	for _, tc := range []struct {
		name     string
		writable bool
		request  func(*client.Client) error
	}{
		{"query", false, func(cl *client.Client) error {
			_, err := cl.Query(testStmt, client.QueryOptions{})
			return err
		}},
		{"commit", true, func(cl *client.Client) error {
			_, err := cl.Commit()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			srv, addr := startServer(t, func(c *Config) {
				c.Sessions = 1
				c.MaxQueue = 0
				c.QueryTimeout = 150 * time.Millisecond
				if tc.writable {
					c.Source = nil
					c.Store = testStore(t)
				}
			}, func(ctx context.Context) {
				if armed.Load() {
					<-ctx.Done()
				}
			})
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// Compile the statement into the session's plan cache, so that a
			// later miss on it can only mean a new session.
			for i := 0; i < 2; i++ {
				if _, err := cl.Query(testStmt, client.QueryOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			before := srv.Stats()

			armed.Store(true)
			var se *client.ServerError
			if err := tc.request(cl); !errors.As(err, &se) || se.Code != wire.CodeTimeout {
				t.Fatalf("want CodeTimeout, got %v", err)
			}
			armed.Store(false)

			other, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			if _, err := other.Query(testStmt, client.QueryOptions{}); err != nil {
				t.Fatalf("second connection not served right after the timeout: %v", err)
			}
			after := srv.Stats()
			if after.TimedOut != 1 {
				t.Fatalf("timed-out counter = %d, want 1", after.TimedOut)
			}
			if after.HeadVersion != before.HeadVersion || after.Commits != before.Commits || after.WalRecords != before.WalRecords {
				t.Fatalf("the timed-out request moved the chain: head %d -> %d, commits %d -> %d, WAL records %d -> %d",
					before.HeadVersion, after.HeadVersion, before.Commits, after.Commits, before.WalRecords, after.WalRecords)
			}
			if _, err := cl.Query(testStmt, client.QueryOptions{}); err != nil {
				t.Fatalf("query after timeout: %v", err)
			}
			if got := srv.Stats().PlanCacheMisses; got != after.PlanCacheMisses+1 {
				t.Fatalf("plan-cache misses went %d -> %d: the stopped session was reused", after.PlanCacheMisses, got)
			}
		})
	}
}

// TestRequestStartsNoGoroutine: a request runs on its connection's
// goroutine, so one in flight adds no goroutine over an idle connection.
func TestRequestStartsNoGoroutine(t *testing.T) {
	var armed atomic.Bool
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	_, addr := startServer(t, func(c *Config) { c.Sessions = 1 }, func(context.Context) {
		if armed.Load() {
			started <- struct{}{}
			<-gate
		}
	})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Fork the session and compile the plan first: what is measured is a
	// steady-state request.
	if _, err := cl.Query(testStmt, client.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	send := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		<-send
		_, err := cl.Query(testStmt, client.QueryOptions{})
		done <- err
	}()
	idle := runtime.NumGoroutine()
	close(send)
	<-started
	inFlight := runtime.NumGoroutine()
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if inFlight > idle {
		t.Fatalf("%d goroutines with a request in flight, %d with the connection idle", inFlight, idle)
	}
}

// testStore opens a chain store over a freshly saved test database.
func testStore(t *testing.T) *persist.ChainStore {
	t.Helper()
	sn, _, err := testSource()
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.tbsp")
	if err := persist.Save(base, sn); err != nil {
		t.Fatal(err)
	}
	store, _, err := persist.OpenChainStore(base, base+".wal", derby.DefaultWaveSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestLatencyWindow checks the latency populations are bounded: after
// latencyWindow+k samples the summaries cover exactly the last
// latencyWindow of them and the buffers have stopped growing.
func TestLatencyWindow(t *testing.T) {
	const k = 1000
	var m Metrics
	plan := &oql.Plan{}
	record := func(i int) {
		m.Served(plan, time.Duration(i)*time.Microsecond, time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < latencyWindow; i++ {
		record(i)
	}
	full := cap(m.wallUs)
	for i := latencyWindow; i < latencyWindow+k; i++ {
		record(i)
	}
	if len(m.wallUs) != latencyWindow || len(m.simMs) != latencyWindow || cap(m.wallUs) != full {
		t.Fatalf("populations grew past the window: len %d/%d cap %d -> %d",
			len(m.wallUs), len(m.simMs), full, cap(m.wallUs))
	}
	st := m.Stats()
	if st.Served != latencyWindow+k {
		t.Fatalf("served = %d, want %d", st.Served, latencyWindow+k)
	}
	// The window holds k .. latencyWindow+k-1; nearest rank p is the
	// ceil(p% of latencyWindow)-th smallest.
	for _, c := range []struct {
		name      string
		wall, sim int64
		p         int
	}{
		{"p50", st.WallP50us, st.SimP50ms, 50},
		{"p95", st.WallP95us, st.SimP95ms, 95},
		{"p99", st.WallP99us, st.SimP99ms, 99},
	} {
		want := int64(k + (c.p*latencyWindow+99)/100 - 1)
		if c.wall != want || c.sim != want {
			t.Fatalf("%s = %d wall / %d sim, want %d (over the last %d samples only)",
				c.name, c.wall, c.sim, want, latencyWindow)
		}
	}
}
