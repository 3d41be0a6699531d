// Command treebench-coord is the scatter-gather coordinator for a sharded
// treebench cluster: it speaks the same wire protocol as treebenchd, plans
// each incoming statement locally, fans distributable operators (full
// scans; NL/PHJ/CHJ tree joins) out to N treebenchd shards as
// chunk-ownership slices, and merges the partial results in shard-index
// order — producing rendered tables and meter totals byte-identical to a
// single-node run. Non-distributable operators are routed whole to one
// shard; the merged output is still exact.
//
// Usage:
//
//	treebench-coord -shards 127.0.0.1:8630,127.0.0.1:8631,127.0.0.1:8632
//	                [-addr 127.0.0.1:8629] [-providers 200] [-avg 50]
//	                [-clustering class] [-seed 1997]
//	                [-snapshot-dir DIR] [-bufpool-mb N] [-pprof ADDR]
//	                [-query-timeout 60s] [-drain-grace 30s] [-v]
//
// -bufpool-mb sizes the coordinator's own shared buffer pool (its
// planning snapshot reads through it; at least 1). -pprof ADDR serves
// net/http/pprof on ADDR for profiling the scatter-gather and pool hot
// paths.
//
// The shard list is positional: the i-th address must be a treebenchd
// started with -shard i/N over the SAME -providers/-avg/-clustering/-seed.
// The coordinator holds a copy of the snapshot itself (from the same
// content-addressed cache the shards use) for planning and for the shard
// map; it verifies each shard's announced identity and snapshot key at
// dial time and fails queries over a mismatched or unreachable shard with
// a typed shard error rather than merging wrong answers.
//
// Only cold queries are accepted: warm-cache sequences are a property of
// one session's history and cannot be sliced deterministically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"treebench/internal/cli"
	"treebench/internal/dist"
	"treebench/internal/persist"
	"treebench/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8629", "listen address")
		shards     = flag.String("shards", "", "comma-separated shard addresses, in shard-index order (required)")
		shape      = cli.ShapeFlags(flag.CommandLine, 200, 50) // must match the shards
		pool       = cli.PoolFlags(flag.CommandLine)
		timeout    = flag.Duration("query-timeout", 60*time.Second, "per-query budget across the whole scatter-gather")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight queries")
		snapDir    = cli.SnapshotDirFlag(flag.CommandLine)
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6061; empty disables)")
		verbose    = flag.Bool("v", false, "log shard dials and lifecycle to stderr")
	)
	flag.Parse()
	if err := pool.Setup(); err != nil {
		fatal(err)
	}
	server.ServePprof("treebench-coord", *pprofAddr)

	addrs := splitAddrs(*shards)
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-shards is required (comma-separated, shard-index order)"))
	}
	cfg, err := shape.Config()
	if err != nil {
		fatal(err)
	}
	dcfg := dist.Config{
		ShardAddrs: addrs,
		Source:     server.SnapshotSource(cfg, *snapDir),
		Label: fmt.Sprintf("%dx%d %s × %d shards",
			cfg.Providers, cfg.Providers*cfg.AvgPatients, cfg.Clustering, len(addrs)),
		SnapshotKey:  persist.KeyFor(cfg),
		QueryTimeout: *timeout,
	}
	if *verbose {
		dcfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "treebench-coord: "+format+"\n", args...)
		}
	}
	co, err := dist.New(dcfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("treebench-coord: preparing %s planning snapshot...\n", dcfg.Label)
	if err := co.Warm(); err != nil {
		fatal(err)
	}
	if err := co.RunDaemon("treebench-coord", *addr, *drainGrace); err != nil {
		fatal(err)
	}
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "treebench-coord:", err)
	os.Exit(1)
}
