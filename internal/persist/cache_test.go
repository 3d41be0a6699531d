package persist

import (
	"os"
	"sync"
	"testing"

	"treebench/internal/derby"
)

func TestCacheGetOrGenerate(t *testing.T) {
	dir := t.TempDir()
	cfg := derby.DefaultConfig(20, 20, derby.ClassCluster)

	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, out, err := c1.GetOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != "generated" || c1.Generations() != 1 {
		t.Fatalf("cold cache: source %q, %d generations", out.Source, c1.Generations())
	}
	if _, err := os.Stat(out.Path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	// Same process, same key: memoized, still one generation.
	snap2, out2, err := c1.GetOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap2 != snap || c1.Generations() != 1 {
		t.Fatalf("second call regenerated (%d generations)", c1.Generations())
	}
	_ = out2

	// Fresh Cache over the same dir (a second boot): served from disk,
	// zero generations.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap3, out3, err := c2.GetOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Source != "cache" {
		t.Fatalf("warm boot source = %q", out3.Source)
	}
	if c2.Generations() != 0 {
		t.Fatalf("warm boot performed %d generations, want 0", c2.Generations())
	}
	if snap3.Engine.Pages() != snap.Engine.Pages() {
		t.Fatalf("cached snapshot has %d pages, original %d", snap3.Engine.Pages(), snap.Engine.Pages())
	}
}

// TestCacheSingleflight hammers one key from many goroutines; exactly one
// generation may happen.
func TestCacheSingleflight(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := derby.DefaultConfig(20, 20, derby.ClassCluster)
	var wg sync.WaitGroup
	snaps := make([]*derby.Snapshot, 8)
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, _, err := c.GetOrGenerate(cfg)
			if err != nil {
				t.Error(err)
			}
			snaps[i] = snap
		}(i)
	}
	wg.Wait()
	if c.Generations() != 1 {
		t.Fatalf("%d generations for one key", c.Generations())
	}
	for i, s := range snaps {
		if s != snaps[0] {
			t.Fatalf("goroutine %d got a different snapshot", i)
		}
	}
}

// TestCacheCorruptEntryRegenerates: a damaged cache file is regenerated
// and overwritten, not served or fatal.
func TestCacheCorruptEntryRegenerates(t *testing.T) {
	dir := t.TempDir()
	cfg := derby.DefaultConfig(20, 20, derby.ClassCluster)
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := c1.GetOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(out.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, out2, err := c2.GetOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Source != "generated" || c2.Generations() != 1 {
		t.Fatalf("corrupt entry: source %q, %d generations", out2.Source, c2.Generations())
	}
	if _, err := Verify(out2.Path); err != nil {
		t.Fatalf("regenerated entry still corrupt: %v", err)
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv(SnapshotDirEnvVar, "/tmp/tb-test-snapdir")
	dir, err := DefaultDir()
	if err != nil {
		t.Fatal(err)
	}
	if dir != "/tmp/tb-test-snapdir" {
		t.Fatalf("DefaultDir = %q", dir)
	}
}
