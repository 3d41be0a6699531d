package engine_test

import (
	"path/filepath"
	"testing"

	"treebench/internal/bufpool"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/join"
	"treebench/internal/persist"
	"treebench/internal/selection"
)

// TestRetainedBatchPinsNoPage pins that the batches a session and its
// chunk forks keep between queries hold no record slice, and so no page
// buffer the pool has evicted. The database is loaded through a 1 MB pool
// a fraction of its image, so the scans below evict on every chunk; a
// chunked full scan and an NL join run on the chunk forks, an unchunked
// scan on the session itself.
func TestRetainedBatchPinsNoPage(t *testing.T) {
	defer bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	gen, err := derby.Generate(derby.DefaultConfig(200, 100, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := gen.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "derby.tbsp")
	if err := persist.Save(path, mem); err != nil {
		t.Fatal(err)
	}
	bufpool.Setup(1, bufpool.DefaultReadahead)
	sn, err := persist.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	d := sn.Fork()
	db := d.DB
	db.SetQueryJobs(2)

	chunks := len(selection.ScanChunks(d.Patients))
	if chunks < 2 {
		t.Fatalf("the Patients scan runs as %d chunk; the test needs chunk forks", chunks)
	}
	for _, e := range []*engine.Extent{d.Patients, d.Providers} {
		db.ColdRestart()
		req := selection.Request{Extent: e, Where: selection.Always, Projects: []string{"name"}}
		res, err := selection.Run(db, req, selection.FullScan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != e.Count {
			t.Fatalf("scan of %s selected %d of %d rows", e.Name, res.Rows, e.Count)
		}
	}
	db.ColdRestart()
	env := join.EnvForDerby(d)
	if _, err := join.Run(env, join.NL, env.BySelectivity(90, 90)); err != nil {
		t.Fatal(err)
	}

	if st := bufpool.Active().Stats(); st.Evictions == 0 {
		t.Fatal("the pool evicted nothing; shrink it or grow the database")
	}
	held, batches := engine.HeldRecs(db)
	if batches < 1+chunks {
		t.Fatalf("found %d retained batches, want the session's and one per chunk fork (%d)", batches, 1+chunks)
	}
	if held != 0 {
		t.Fatalf("the retained batches hold %d record slices after their queries", held)
	}
}
