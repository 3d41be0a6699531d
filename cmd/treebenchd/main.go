// Command treebenchd is the treebench query daemon: it serves one
// generated Derby database over TCP to concurrent OQL clients, restoring
// the client–server boundary the paper's O2 had (the engine itself stays
// simulated and deterministic).
//
// Usage:
//
//	treebenchd [-addr 127.0.0.1:8629] [-providers 200] [-avg 50]
//	           [-clustering class] [-seed 1997] [-sessions N] [-qj N]
//	           [-index-backend btree|disk|lsm] [-bufpool-mb N] [-pprof ADDR]
//	           [-max-queue 64] [-query-timeout 30s] [-drain-grace 30s]
//	           [-snapshot-dir DIR] [-v]
//	           [-wal DIR] [-compact-every N]
//	           [-wave-reassign N] [-wave-scalar N] [-wave-grow-every N] [-wave-upgrades N]
//
// -wal DIR makes the daemon writable: the database lives in DIR as a base
// snapshot (base.tbsp) plus a write-ahead log (wal), opened as an MVCC
// chain store. Commit frames apply the next update wave and group-commit
// it to the WAL; on boot the daemon replays the WAL tail over the base
// (crash recovery), truncating a torn tail if the last run died
// mid-append. The -wave-* flags set the update-workload knobs and must be
// kept identical across restarts of the same DIR — the wave sequence is a
// pure function of (seed, spec), which is what makes recovery
// byte-identical. -compact-every N folds the chain into a fresh base
// snapshot and truncates the WAL whenever the head runs N commits ahead
// of the base (0 disables compaction).
//
// -sessions is both the number of sessions sized for and the admission
// width: at most that many queries execute at once (0 means min(NumCPU,
// 8)); -max-queue more may wait. -qj sets each query's intra-query workers
// (0 means min(NumCPU, 4)). Both change wall-clock speed only, never a
// reported number; the vectorized batch size is engine.DefaultBatch.
//
// -index-backend selects the pluggable index structure ("btree" or
// "lsm"); an unknown kind is rejected at startup with the valid list.
// Backends change physical layout and page-granular cost accounting, never
// query results.
//
// -bufpool-mb sizes the process-wide shared buffer pool every session and
// chain store reads snapshot-file pages through (default 256, at least 1:
// a loaded snapshot has no other way to read a page). A miss that
// continues a sequential scan reads bufpool.DefaultReadahead pages at
// once. The pool changes real wall clock and real RSS only — simulated
// meters and query tables are byte-identical at every setting.
//
// -pprof ADDR serves net/http/pprof on ADDR (e.g. 127.0.0.1:6060) so the
// buffer-pool and readahead hot paths can be profiled under load (the
// bench/ module's workloads).
//
// The daemon obtains the configured database once — loading it from the
// snapshot cache when -snapshot-dir (or TREEBENCH_SNAPSHOT_DIR) has a
// matching entry, generating and caching it otherwise — freezes it into an
// immutable shared snapshot, and forks a private per-connection session
// (caches, meter, handles) from it in O(1) — so N sessions execute truly
// concurrently over one copy of the data; admission control bounds
// executing queries and rejects past the bounded queue. SIGINT/SIGTERM
// drain gracefully: in-flight queries finish and flush before the process
// exits.
//
// A warm boot from the cache performs zero dataset generation: the second
// start of the same configuration is O(catalog), with data pages streamed
// from the snapshot file on first touch. The Stats response reports the
// snapshot's provenance.
//
// Query it with `oqlsh -coord ADDR -e` (`.commit` and `.server` included),
// load it with the bench/ module, or use any internal/client user. Cold
// queries (the default) return
// byte-identical output to the same statement in `oqlsh -e` over the same
// database configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treebench/internal/bufpool"
	"treebench/internal/cli"
	"treebench/internal/core"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8629", "listen address")
		shape      = cli.ShapeFlags(flag.CommandLine, 200, 50)
		exec       = cli.ExecFlags(flag.CommandLine)
		pool       = cli.PoolFlags(flag.CommandLine)
		sessions   = flag.Int("sessions", 0, "concurrently executing queries, the admission width (0 = min(NumCPU, 8))")
		maxQueue   = flag.Int("max-queue", 64, "queries allowed to wait for admission before rejection")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
		timeout    = flag.Duration("query-timeout", 30*time.Second, "per-query wall-clock budget (queue wait + execution)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight queries")
		snapDir    = cli.SnapshotDirFlag(flag.CommandLine)
		walDir     = flag.String("wal", "", "writable mode: directory holding the chain base snapshot and write-ahead log (empty = read-only)")
		compactN   = flag.Int("compact-every", 0, "fold the chain into a fresh base whenever the head is this many commits ahead (0 disables)")
		wReassign  = flag.Int("wave-reassign", derby.DefaultWaveSpec().Reassign, "patient reassignments per update wave")
		wScalar    = flag.Int("wave-scalar", derby.DefaultWaveSpec().Scalar, "scalar overwrites per update wave")
		wGrowEvery = flag.Int("wave-grow-every", derby.DefaultWaveSpec().GrowEvery, "every Nth wave is a schema-growth wave (0 disables growth)")
		wUpgrades  = flag.Int("wave-upgrades", derby.DefaultWaveSpec().Upgrades, "objects re-encoded per schema-growth wave")
		verbose    = flag.Bool("v", false, "log sessions and lifecycle to stderr")
	)
	flag.Parse()
	// Configure the shared buffer pool before anything loads a snapshot.
	if err := pool.Setup(); err != nil {
		fatal(err)
	}
	server.ServePprof("treebenchd", *pprofAddr)

	cfg, err := shape.Config()
	if err != nil {
		fatal(err)
	}
	qj, kind, err := exec.Resolve()
	if err != nil {
		fatal(err)
	}
	cfg.IndexBackend = kind
	n := *sessions
	if n == 0 {
		n = core.DefaultJobs()
	}
	scfg := server.Config{
		Label:        fmt.Sprintf("%dx%d %s", cfg.Providers, cfg.Providers*cfg.AvgPatients, cfg.Clustering),
		Sessions:     n,
		MaxQueue:     *maxQueue,
		QueryJobs:    qj,
		QueryTimeout: *timeout,
	}
	var store *persist.ChainStore
	if *walDir != "" {
		spec := derby.WaveSpec{
			Reassign: *wReassign, Scalar: *wScalar,
			GrowEvery: *wGrowEvery, Upgrades: *wUpgrades,
			Seed: cfg.Seed,
		}
		store, err = openChainStore(cfg, *walDir, spec)
		if err != nil {
			fatal(err)
		}
		scfg.Store = store
		scfg.Label += " writable"
	} else {
		scfg.Source = server.SnapshotSource(cfg, *snapDir)
	}
	if *verbose {
		scfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "treebenchd: "+format+"\n", args...)
		}
	}
	srv, err := server.New(scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("treebenchd: preparing %s snapshot (%d sessions fork from it)...\n", scfg.Label, n)
	if err := srv.Warm(); err != nil {
		fatal(err)
	}

	stop, stopped := make(chan struct{}), make(chan struct{})
	if store != nil && *compactN > 0 {
		go func() {
			defer close(stopped)
			compactor(store, *compactN, *verbose, stop)
		}()
	} else {
		close(stopped)
	}
	err = srv.RunDaemon("treebenchd", *addr, *drainGrace)
	// Release what the daemon opened: a compaction in flight finishes, then
	// the WAL flushes and closes.
	close(stop)
	<-stopped
	if store != nil {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close chain store: %w", cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// openChainStore opens (or initializes) the writable chain store in dir:
// a base snapshot file plus a write-ahead log, replaying the WAL tail
// over the base on boot. A missing base is generated from cfg and saved
// first — the write-path analogue of the read-only cache's cold boot.
func openChainStore(cfg derby.Config, dir string, spec derby.WaveSpec) (*persist.ChainStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, "base.tbsp")
	if _, err := os.Stat(base); err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		fmt.Printf("treebenchd: initializing chain base %s...\n", base)
		d, err := derby.Generate(cfg)
		if err != nil {
			return nil, err
		}
		sn, err := d.Freeze()
		if err != nil {
			return nil, err
		}
		if err := persist.Save(base, sn); err != nil {
			return nil, err
		}
	}
	store, rec, err := persist.OpenChainStore(base, filepath.Join(dir, "wal"), spec)
	if err != nil {
		return nil, err
	}
	st := store.Stats()
	torn := ""
	if rec.Torn != nil {
		torn = fmt.Sprintf(" (torn tail truncated: %v)", rec.Torn)
	}
	fmt.Printf("treebenchd: wal replayed %d commits, head v%d over base v%d%s\n",
		rec.Records, st.HeadVersion, st.BaseVersion, torn)
	return store, nil
}

// compactor folds the chain into a fresh base whenever the head runs n
// commits ahead, then truncates the WAL — the background compaction that
// keeps recovery time bounded. It polls once a second until stop closes;
// compaction timing never affects data (the head is a pure function of
// commit count).
func compactor(store *persist.ChainStore, n int, verbose bool, stop <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st := store.Stats()
		if st.HeadVersion-st.BaseVersion < uint64(n) {
			continue
		}
		before := bufpool.Active().Stats()
		v, err := store.Compact()
		if err != nil {
			fmt.Fprintf(os.Stderr, "treebenchd: compaction: %v\n", err)
			return
		}
		if verbose {
			// Every version before the head is now reachable only by the
			// readers still holding it. Only a compaction adopts or drops
			// frames, so the pool's counters moved by this one alone.
			after := bufpool.Active().Stats()
			fmt.Fprintf(os.Stderr, "treebenchd: compacted chain into base v%d (%d versions reclaimed, %d pages adopted, %d dropped)\n",
				v, st.Versions-1, after.Adopted-before.Adopted, after.Dropped-before.Dropped)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "treebenchd:", err)
	os.Exit(1)
}
