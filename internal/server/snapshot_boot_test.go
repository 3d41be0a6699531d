package server

import (
	"fmt"
	"strings"
	"testing"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/session"
)

// cacheSource builds a server Config.Source over a snapshot cache —
// exactly what treebenchd -snapshot-dir wires up.
func cacheSource(cache *persist.Cache, cfg derby.Config) func() (*derby.Snapshot, string, error) {
	return func() (*derby.Snapshot, string, error) {
		sn, out, err := cache.GetOrGenerate(cfg)
		if err != nil {
			return nil, "", err
		}
		return sn, fmt.Sprintf("%s (%s)", out.Source, out.Path), nil
	}
}

// TestSecondBootFromCacheGeneratesNothing is the acceptance criterion for
// the warm-boot path: a second treebenchd boot over a warm snapshot
// directory performs zero dataset generation, serves byte-identical query
// results, and reports cache provenance in Stats.
func TestSecondBootFromCacheGeneratesNothing(t *testing.T) {
	dir := t.TempDir()
	dbCfg := testDBConfig()

	query := func(srv *Server, addr string) (string, string) {
		t.Helper()
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Query(testStmt, client.QueryOptions{MaxRows: 50})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		session.WriteResult(&b, res, 50)
		st := srv.Stats()
		return b.String(), st.SnapshotSource
	}

	// Boot 1: cold cache — generates once and persists.
	cache1, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, addr1 := startServer(t, func(c *Config) {
		c.Source = cacheSource(cache1, dbCfg)
	}, nil)
	out1, src1 := query(srv1, addr1)
	if cache1.Generations() != 1 {
		t.Fatalf("first boot: %d generations, want 1", cache1.Generations())
	}
	if !strings.HasPrefix(src1, "generated") {
		t.Fatalf("first boot snapshot source = %q", src1)
	}

	// Boot 2: a fresh server and fresh Cache over the same directory —
	// the second daemon start. It must not generate at all.
	cache2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, addr2 := startServer(t, func(c *Config) {
		c.Source = cacheSource(cache2, dbCfg)
	}, nil)
	out2, src2 := query(srv2, addr2)
	if n := cache2.Generations(); n != 0 {
		t.Fatalf("second boot performed %d generations, want 0", n)
	}
	if !strings.HasPrefix(src2, "cache") {
		t.Fatalf("second boot snapshot source = %q", src2)
	}
	if out1 != out2 {
		t.Errorf("cache boot answers differently:\n--- generated\n%s--- cached\n%s", out1, out2)
	}
}
