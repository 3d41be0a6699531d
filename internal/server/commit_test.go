package server

import (
	"errors"
	"path/filepath"
	"testing"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/wire"
)

// startChainServer saves a small database as a chain base, opens a
// ChainStore over it, and serves in store (writable) mode.
func startChainServer(t *testing.T) (*Server, string, *persist.ChainStore) {
	t.Helper()
	dir := t.TempDir()
	ds, err := derby.Generate(testDBConfig())
	if err != nil {
		t.Fatal(err)
	}
	root, err := ds.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "base.tbsp")
	if err := persist.Save(snapPath, root); err != nil {
		t.Fatal(err)
	}
	store, _, err := persist.OpenChainStore(snapPath, filepath.Join(dir, "base.wal"), derby.DefaultWaveSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Source = nil
		cfg.Store = store
	}, nil)
	return srv, addr, store
}

// TestCommitOverWire drives the full write path through the protocol:
// commits advance the chain head version by version, the results carry
// lineage, stats surface the chain and WAL counters, and a query after a
// commit runs against the new head.
func TestCommitOverWire(t *testing.T) {
	_, addr, store := startChainServer(t)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for want := uint64(1); want <= 3; want++ {
		cr, err := c.Commit()
		if err != nil {
			t.Fatalf("commit %d: %v", want, err)
		}
		if cr.Version != want || cr.Wave != want {
			t.Fatalf("commit %d: version=%d wave=%d", want, cr.Version, cr.Wave)
		}
		if cr.Reassigned == 0 || cr.Scalars == 0 {
			t.Fatalf("commit %d did nothing: %+v", want, cr)
		}
		if cr.DeltaPages <= 0 || cr.WalOff < 0 {
			t.Fatalf("commit %d lineage: %+v", want, cr)
		}
	}
	if head := store.Head(); head.Engine.Version() != 3 {
		t.Fatalf("head version = %d, want 3", head.Engine.Version())
	}

	// A query after the commits must run against the committed head, and
	// the database must still verify.
	if _, err := c.Query(testStmt, client.QueryOptions{}); err != nil {
		t.Fatalf("query after commit: %v", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.HeadVersion != 3 || st.Commits != 3 {
		t.Fatalf("stats head=%d commits=%d, want 3/3", st.HeadVersion, st.Commits)
	}
	if st.WalRecords != 3 || st.WalSyncs == 0 || st.WalTail == 0 {
		t.Fatalf("stats wal: %+v", st)
	}
	if st.SnapshotSource != "chain" {
		t.Fatalf("snapshot source = %q, want chain", st.SnapshotSource)
	}
}

// TestCommitMatchesLocalReplay checks the wire path is just transport:
// after N remote commits the server's head is byte-identical to N waves
// replayed in memory against the same base.
func TestCommitMatchesLocalReplay(t *testing.T) {
	_, addr, store := startChainServer(t)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const waves = 4 // includes the wave-4 schema-growth relocation storm
	for i := 0; i < waves; i++ {
		if _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := derby.Generate(testDBConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ds.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	spec := derby.DefaultWaveSpec()
	for w := uint64(1); w <= waves; w++ {
		d := ref.ForkMutable()
		if _, err := derby.ApplyWave(d, w, spec); err != nil {
			t.Fatal(err)
		}
		es, _, err := d.DB.Publish()
		if err != nil {
			t.Fatal(err)
		}
		ref = ref.WithEngine(es)
	}
	eq, why, err := persist.PageEqual(store.Head(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("remote head diverged from local replay: %s", why)
	}
}

// TestCommitReadOnlyServer checks a store-less server rejects commits
// with CodeReadOnly and keeps the session alive for queries.
func TestCommitReadOnlyServer(t *testing.T) {
	_, addr := startServer(t, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Commit()
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeReadOnly {
		t.Fatalf("commit on read-only server: %v", err)
	}
	if _, err := c.Query(testStmt, client.QueryOptions{}); err != nil {
		t.Fatalf("query after rejected commit: %v", err)
	}
}
