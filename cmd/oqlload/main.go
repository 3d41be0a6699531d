// Command oqlload is a closed-loop load generator for treebenchd: C
// clients each issue Q queries back-to-back over their own connection, and
// the run reports aggregate throughput, wall-clock latency percentiles,
// and the server's own counters — the multi-client measurement the OCB
// line of benchmarks asks for and a single in-process shell cannot give.
//
// Usage:
//
//	oqlload [-addr 127.0.0.1:8629] -c 8 -n 20 [-e '<stmt;>'] [-f queries.oql]
//	        [-warm] [-heuristic] [-maxrows 10] [-retries 20] [-timeout 60s]
//	        [-coord] [-mix F]
//
// To run statements once and print them like the local shell, use
// `oqlsh -coord ADDR -e '<stmt;> ...'`.
//
// -mix F makes fraction F of each client's operations commits instead of
// queries (the read/write workload axis): a commit asks the daemon to
// apply and durably log its next update wave — reassignments, scalar
// overwrites, and on growth waves the relocation storm. The daemon must
// be running with -wal; commit wall latency (which includes the shared
// WAL fsync) is reported separately from query latency, along with the
// server's chain and WAL counters. Which ops are commits is decided by
// deterministic error diffusion per client, not a coin flip, so the same
// flags always issue the same operation sequence.
//
// With -f, statements (semicolon-terminated) are read from the file and
// issued round-robin.
//
// With -coord, -addr names a treebench-coord instead of a treebenchd: the
// post-run report additionally fetches the cluster view — the
// deterministic shard map plus each shard's own served/latency counters
// and wall/simulated histograms, so per-shard load skew is visible at a
// glance.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"treebench/internal/client"
	"treebench/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8629", "treebenchd address")
		clients   = flag.Int("c", 8, "concurrent clients")
		perClient = flag.Int("n", 20, "queries per client")
		stmtFlag  = flag.String("e", "", "semicolon-terminated statement(s) to issue")
		file      = flag.String("f", "", "file of semicolon-terminated statements, issued round-robin")
		warm      = flag.Bool("warm", false, "keep each session's caches warm between its queries")
		heuristic = flag.Bool("heuristic", false, "use the legacy heuristic optimizer")
		maxRows   = flag.Int("maxrows", 10, "sample rows fetched per query")
		retries   = flag.Int("retries", 20, "connect retries (the daemon may still be generating)")
		ioTimeout = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		coord     = flag.Bool("coord", false, "-addr is a treebench-coord: also report the shard map and per-shard stats")
		mix       = flag.Float64("mix", 0, "fraction of operations that are commits (0 = read-only, 1 = all writes; needs a -wal daemon)")
	)
	flag.Parse()
	if *mix < 0 || *mix > 1 {
		fatal(fmt.Errorf("-mix %v: want a fraction in [0,1]", *mix))
	}

	stmts, err := statements(*stmtFlag, *file)
	if err != nil {
		fatal(err)
	}
	opts := client.Options{RetryAttempts: *retries, IOTimeout: *ioTimeout}
	qopts := client.QueryOptions{Warm: *warm, Heuristic: *heuristic, MaxRows: *maxRows}

	if *clients < 1 || *perClient < 1 {
		fatal(fmt.Errorf("-c %d -n %d: both must be at least 1", *clients, *perClient))
	}

	type clientReport struct {
		ok, failed   int
		latencies    []time.Duration
		simTotal     time.Duration
		wok, wfailed int
		wlatencies   []time.Duration
		firstErr     error
	}
	reports := make([]clientReport, *clients)
	var label string
	var labelOnce sync.Once

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rep := &reports[id]
			c, err := client.Dial(*addr, opts)
			if err != nil {
				rep.failed = *perClient
				rep.firstErr = err
				return
			}
			defer c.Close()
			labelOnce.Do(func() { label = c.Label() })
			writes := 0
			for j := 0; j < *perClient; j++ {
				// Error diffusion: commit whenever the running write
				// ratio is below the target, so every client issues
				// exactly the requested fraction, deterministically.
				if float64(writes) < *mix*float64(j+1) {
					writes++
					t0 := time.Now()
					if _, err := c.Commit(); err != nil {
						rep.wfailed++
						if rep.firstErr == nil {
							rep.firstErr = err
						}
						continue
					}
					rep.wok++
					rep.wlatencies = append(rep.wlatencies, time.Since(t0))
					continue
				}
				stmt := stmts[(id**perClient+j)%len(stmts)]
				t0 := time.Now()
				res, err := c.Query(stmt, qopts)
				if err != nil {
					rep.failed++
					if rep.firstErr == nil {
						rep.firstErr = err
					}
					continue
				}
				rep.ok++
				rep.latencies = append(rep.latencies, time.Since(t0))
				rep.simTotal += res.Elapsed
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var ok, failed, wok, wfailed int
	var all, wlat []time.Duration
	var simTotal time.Duration
	var firstErr error
	for i := range reports {
		ok += reports[i].ok
		failed += reports[i].failed
		wok += reports[i].wok
		wfailed += reports[i].wfailed
		all = append(all, reports[i].latencies...)
		wlat = append(wlat, reports[i].wlatencies...)
		simTotal += reports[i].simTotal
		if firstErr == nil {
			firstErr = reports[i].firstErr
		}
	}

	mixNote := ""
	if *mix > 0 {
		mixNote = fmt.Sprintf(", write mix %.0f%%", 100**mix)
	}
	fmt.Printf("oqlload: %d clients × %d ops against %s (db %s%s)\n",
		*clients, *perClient, *addr, label, mixNote)
	fmt.Printf("queries %d ok %d failed %d in %.2fs wall → %.1f q/s\n",
		ok+failed, ok, failed, wall.Seconds(), float64(ok)/wall.Seconds())
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		fmt.Printf("wall latency   p50 %s  p95 %s  p99 %s  max %s\n",
			pct(all, 50), pct(all, 95), pct(all, 99), all[len(all)-1].Round(time.Microsecond))
		fmt.Printf("simulated time %.2fs total, %.2fs mean per query\n",
			simTotal.Seconds(), simTotal.Seconds()/float64(ok))
	}
	if wok+wfailed > 0 {
		fmt.Printf("commits %d ok %d failed %d → %.1f commits/s\n",
			wok+wfailed, wok, wfailed, float64(wok)/wall.Seconds())
		if len(wlat) > 0 {
			sort.Slice(wlat, func(i, j int) bool { return wlat[i] < wlat[j] })
			fmt.Printf("commit latency p50 %s  p95 %s  p99 %s  max %s\n",
				pct(wlat, 50), pct(wlat, 95), pct(wlat, 99), wlat[len(wlat)-1].Round(time.Microsecond))
		}
	}
	if firstErr != nil {
		fmt.Printf("first error: %v\n", firstErr)
	}

	// The server's own view: admission and latency counters.
	if c, err := client.Dial(*addr, opts); err == nil {
		if st, err := c.Stats(); err == nil {
			fmt.Printf("server: served %d (errors %d) rejected %d timeouts %d, sessions %d, queue %d, executing %d/%d, snapshot %d pages (%.1f MiB shared)\n",
				st.Served, st.QueryErrors, st.Rejected, st.TimedOut,
				st.ActiveSessions, st.QueueDepth, st.BusySessions, st.Sessions,
				st.SnapshotPages, float64(st.SnapshotBytes)/(1<<20))
			if st.SnapshotSource != "" {
				fmt.Printf("server snapshot source: %s\n", st.SnapshotSource)
			}
			if total := st.PlanCacheHits + st.PlanCacheMisses; total > 0 {
				fmt.Printf("server plan cache: %d hits / %d lookups (%.0f%%)\n",
					st.PlanCacheHits, total, 100*float64(st.PlanCacheHits)/float64(total))
			}
			if st.PlansCost+st.PlansHeuristic > 0 {
				fmt.Printf("server plans: %d cost-based, %d heuristic, batch %d, last operator %s\n",
					st.PlansCost, st.PlansHeuristic, st.BatchSize, st.LastOperator)
			}
			if st.IndexBackend != "" {
				fmt.Printf("server index backend: %s (bloom %d hits / %d misses, sstables read %d, compactions %d, pages written %d)\n",
					st.IndexBackend, st.BackendBloomHits, st.BackendBloomMisses,
					st.BackendSSTablesRead, st.BackendCompactions, st.BackendPagesWritten)
			}
			if st.PoolHits+st.PoolMisses > 0 || st.PoolCapacityPages > 0 {
				hitRate := 0.0
				if t := st.PoolHits + st.PoolMisses; t > 0 {
					hitRate = 100 * float64(st.PoolHits) / float64(t)
				}
				fmt.Printf("server pool:  %d hits / %d misses (%.0f%%), %d evictions, readahead %d issued / %d used / %d wasted, %d/%d pages resident\n",
					st.PoolHits, st.PoolMisses, hitRate, st.PoolEvictions,
					st.PoolReadaheadIssued, st.PoolReadaheadUsed, st.PoolReadaheadWasted,
					st.PoolResidentPages, st.PoolCapacityPages)
			}
			fmt.Printf("server wall   p50 %dµs p95 %dµs p99 %dµs  hist %s\n",
				st.WallP50us, st.WallP95us, st.WallP99us, st.WallHist)
			fmt.Printf("server simed  p50 %dms p95 %dms p99 %dms  hist %s\n",
				st.SimP50ms, st.SimP95ms, st.SimP99ms, st.SimHist)
			if st.HeadVersion > 0 || st.Commits > 0 {
				fmt.Printf("server chain: head v%d over base v%d, %d live versions, %d commits, %d compactions\n",
					st.HeadVersion, st.BaseVersion, st.Versions, st.Commits, st.Compactions)
				ratio := float64(st.WalRecords)
				if st.WalSyncs > 0 {
					ratio = float64(st.WalRecords) / float64(st.WalSyncs)
				}
				fmt.Printf("server wal:   %d records (%.1f KiB) in %d syncs (group commit ×%.1f), tail at %d\n",
					st.WalRecords, float64(st.WalBytes)/1024, st.WalSyncs, ratio, st.WalTail)
			}
		}
		if *coord {
			if cs, err := c.ClusterStats(); err != nil {
				fmt.Printf("cluster stats: %v\n", err)
			} else {
				printCluster(cs)
			}
		}
		c.Close()
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// printCluster renders the coordinator's per-shard view: the deterministic
// shard map, then one block per shard with its own admission counters and
// latency histograms (a down shard prints as such instead of numbers).
func printCluster(cs *wire.ClusterStats) {
	fmt.Print(cs.Map)
	for _, sh := range cs.Shards {
		if !sh.Up || sh.Stats == nil {
			fmt.Printf("shard %d @ %s: DOWN\n", sh.Idx, sh.Addr)
			continue
		}
		st := sh.Stats
		fmt.Printf("shard %d @ %s: served %d (errors %d) rejected %d timeouts %d, sessions %d, last operator %s\n",
			sh.Idx, sh.Addr, st.Served, st.QueryErrors, st.Rejected, st.TimedOut,
			st.ActiveSessions, st.LastOperator)
		fmt.Printf("  wall   p50 %dµs p95 %dµs p99 %dµs  hist %s\n",
			st.WallP50us, st.WallP95us, st.WallP99us, st.WallHist)
		fmt.Printf("  simed  p50 %dms p95 %dms p99 %dms  hist %s\n",
			st.SimP50ms, st.SimP95ms, st.SimP99ms, st.SimHist)
	}
}

// pct reads the nearest-rank percentile from sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	i := (p*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1].Round(time.Microsecond)
}

// statements resolves the query list from -e and/or -f; the default is the
// paper's canonical tree query.
func statements(inline, file string) ([]string, error) {
	text := inline
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if text != "" {
			text += ";"
		}
		text += string(b)
	}
	if strings.TrimSpace(text) == "" {
		text = `select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10`
	}
	var stmts []string
	for _, s := range strings.Split(text, ";") {
		if s = strings.TrimSpace(s); s != "" {
			stmts = append(stmts, s)
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("no statements to run")
	}
	return stmts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oqlload:", err)
	os.Exit(1)
}
