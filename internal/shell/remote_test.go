package shell

import (
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/server"
	"treebench/internal/wire"
)

// serve starts an in-process treebenchd over a small database, writable
// through a chain store when writable is set, and returns a remote shell
// connected to it.
func serve(t *testing.T, writable bool) *Shell {
	t.Helper()
	shape := derby.DefaultConfig(20, 20, derby.ClassCluster)
	cfg := server.Config{Source: server.SnapshotSource(shape, ""), Label: "test db", Sessions: 2, MaxQueue: 16}
	if writable {
		ds, err := derby.Generate(shape)
		if err != nil {
			t.Fatal(err)
		}
		root, err := ds.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		base := filepath.Join(dir, "base.tbsp")
		if err := persist.Save(base, root); err != nil {
			t.Fatal(err)
		}
		store, _, err := persist.OpenChainStore(base, filepath.Join(dir, "base.wal"), derby.DefaultWaveSpec())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		cfg.Source, cfg.Store = nil, store
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		<-done
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sh := NewRemote(c)
	sh.Prompt = ""
	return sh
}

// TestRemoteScript drives the remote runner the way the write-path smoke
// does: commits and queries interleaved in one script, then .server.
func TestRemoteScript(t *testing.T) {
	sh := serve(t, true)
	var out bytes.Buffer
	script := ".commit\nselect count(*) from pa in Patients; .commit\n.server\n"
	if err := sh.Script(strings.NewReader(script), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"commit v1 wave 1: ", "commit v2 wave 2: ", "rows in", "\nHeadVersion 2\n", "\nCommits 2\n", "\nSnapshotSource chain\n"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Index(out.String(), "commit v1") > strings.Index(out.String(), "rows in") ||
		strings.Index(out.String(), "rows in") > strings.Index(out.String(), "commit v2") {
		t.Fatalf("items ran out of order:\n%s", out.String())
	}
}

// TestRemoteCommitReadOnly checks .commit against a read-only daemon fails
// the script with the server's read-only error, and that both daemon-only
// commands fail in local mode.
func TestRemoteCommitReadOnly(t *testing.T) {
	sh := serve(t, false)
	var out bytes.Buffer
	err := sh.Script(strings.NewReader(".commit\nselect count(*) from pa in Patients;\n"), &out)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeReadOnly {
		t.Fatalf("commit on a read-only server: %v", err)
	}
	if strings.Contains(out.String(), "rows in") {
		t.Fatalf("script went on after the failed commit:\n%s", out.String())
	}

	local := newShell(t)
	for _, cmd := range []string{".commit", ".server"} {
		out.Reset()
		if err := local.Script(strings.NewReader(cmd+"\n"), &out); err == nil || !strings.Contains(err.Error(), "needs -coord") {
			t.Fatalf("local %s: %v", cmd, err)
		}
	}
}
