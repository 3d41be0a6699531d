package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"treebench/internal/backend"
	"treebench/internal/derby"
)

// SnapshotDirEnvVar names the snapshot cache directory for every tool
// (TREEBENCH_SNAPSHOT_DIR=~/.cache/treebench): DefaultDir reads it, and so
// do the -snapshot-dir default and core.ConfigFromEnv.
const SnapshotDirEnvVar = "TREEBENCH_SNAPSHOT_DIR"

// DefaultDir returns the snapshot cache directory: $TREEBENCH_SNAPSHOT_DIR
// if set, else <user cache dir>/treebench. It does not create the
// directory; Open does.
func DefaultDir() (string, error) {
	if dir := os.Getenv(SnapshotDirEnvVar); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("persist: no cache directory: %w", err)
	}
	return filepath.Join(base, "treebench"), nil
}

// KeyFor returns the content address of the snapshot a Config generates:
// a SHA-256 over a canonical rendering of every generation parameter plus
// the on-disk format version. Two configs that would generate the same
// database hash alike; any parameter that changes the database — scale,
// clustering, seed, cost model, loading discipline — changes the key, and
// a format bump invalidates every old entry at once.
func KeyFor(cfg derby.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tbsp-v%d\n", FormatVersion)
	fmt.Fprintf(&b, "providers=%d\n", cfg.Providers)
	fmt.Fprintf(&b, "avgPatients=%d\n", cfg.AvgPatients)
	fmt.Fprintf(&b, "clustering=%d\n", cfg.Clustering)
	fmt.Fprintf(&b, "seed=%d\n", cfg.Seed)
	fmt.Fprintf(&b, "machine=%d,%d,%d,%d\n",
		cfg.Machine.RAM, cfg.Machine.ServerCache, cfg.Machine.ClientCache, cfg.Machine.HashBudget)
	b.WriteString("model=")
	model := cfg.Model
	for i, f := range model.Fields() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int64(*f))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "txnMode=%d\n", cfg.TxnMode)
	fmt.Fprintf(&b, "createBudget=%d\n", cfg.CreateBudget)
	fmt.Fprintf(&b, "indexBeforeLoad=%t\n", cfg.IndexBeforeLoad)
	fmt.Fprintf(&b, "skipNumIndex=%t\n", cfg.SkipNumIndex)
	fmt.Fprintf(&b, "indexBackend=%s\n", backend.Normalize(cfg.IndexBackend))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Outcome reports where GetOrGenerate got its snapshot.
type Outcome struct {
	// Source is "cache" for a file hit, "generated" for a fresh build.
	Source string
	// Path is the snapshot file backing (or now caching) the result.
	Path string
}

// Cache is a content-addressed snapshot store: one file per generation
// parameter set, named by KeyFor. Concurrent and repeated requests for
// the same key share one result (generation is singleflighted and then
// memoized in memory), so a parameter set is generated at most once per
// process — and, with a warm directory, at most once ever.
type Cache struct {
	dir string

	mu    sync.Mutex
	calls map[string]*cacheCall

	generations atomic.Int64
}

type cacheCall struct {
	done chan struct{}
	snap *derby.Snapshot
	out  Outcome
	err  error
}

// Open returns a Cache over dir, creating it if needed. An empty dir
// selects DefaultDir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, calls: make(map[string]*cacheCall)}, nil
}

// Generations counts fresh dataset generations this Cache has performed —
// the number GetOrGenerate could not serve from disk or memory. A warm
// second boot must leave it unchanged; tests assert exactly that.
func (c *Cache) Generations() int64 { return c.generations.Load() }

// GetOrGenerate returns the snapshot for cfg: from the in-process memo if
// this key was already resolved, from disk if a valid cache file exists,
// else by generating, freezing and saving it. Snapshots are cached
// unprimed (saved straight after Freeze, before any PrimeStats), so a
// loaded snapshot is byte-identical to a freshly generated one; consumers
// that want primed histograms prime their copy after loading.
func (c *Cache) GetOrGenerate(cfg derby.Config) (*derby.Snapshot, Outcome, error) {
	key := KeyFor(cfg)
	c.mu.Lock()
	if call, ok := c.calls[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.snap, call.out, call.err
	}
	call := &cacheCall{done: make(chan struct{})}
	c.calls[key] = call
	c.mu.Unlock()

	call.snap, call.out, call.err = c.resolve(cfg, key)
	if call.err != nil {
		// Leave failures retryable: the next request re-resolves.
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
	}
	close(call.done)
	return call.snap, call.out, call.err
}

func (c *Cache) resolve(cfg derby.Config, key string) (*derby.Snapshot, Outcome, error) {
	path := filepath.Join(c.dir, key+".tbsp")
	if snap, err := Load(path); err == nil {
		return snap, Outcome{Source: "cache", Path: path}, nil
	}
	// Missing or unreadable (a corrupt entry regenerates and is
	// overwritten — the content address guarantees the replacement is
	// what the file should have been).
	ds, err := derby.Generate(cfg)
	if err != nil {
		return nil, Outcome{}, err
	}
	snap, err := ds.Freeze()
	if err != nil {
		return nil, Outcome{}, err
	}
	c.generations.Add(1)
	if err := Save(path, snap); err != nil {
		return nil, Outcome{}, fmt.Errorf("persist: caching snapshot: %w", err)
	}
	return snap, Outcome{Source: "generated", Path: path}, nil
}
