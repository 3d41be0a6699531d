package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"treebench/internal/bufpool"
	"treebench/internal/cli"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/session"
	"treebench/internal/storage"
)

// cmdBench is the measurement driver behind scripts/bench_cache.sh: it
// loads a snapshot file under a chosen buffer-pool configuration and
// times repeated rounds of real work against it — either an OQL
// statement on forked sessions (mode=query) or a raw sequential page
// sweep of the backing image (mode=sweep). Round 1 always runs against
// an empty pool (cold), later rounds against whatever the earlier rounds
// left resident (warm), so one invocation yields a cold/warm pair; the
// RSS comparison comes from a separate invocation with a smaller pool
// (each process gets a fresh pool), the readahead one from -versus. With -direct the page
// image is opened O_DIRECT (persist.LoadDirect), so a miss is a device
// read rather than a copy out of the OS page cache — a mode no daemon
// runs in; the script records the buffered figure beside it.
//
// Output is one key=value record per line, consumed by the script:
//
//	round=1 wall_ms=412.8
//	round=2 wall_ms=97.3
//	result_crc=1a2b3c4d        (byte-identity oracle across configs)
//	pool hits=... misses=... evictions=... ra_issued=... ra_used=... ra_wasted=... resident=... capacity=...
//	vm_rss_kb=180424 vm_hwm_kb=203112
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	file := fs.String("file", "", "snapshot file to benchmark against (required)")
	mode := fs.String("mode", "query", "query (OQL statement on forked sessions) or sweep (sequential page sweep)")
	stmt := fs.String("stmt", "select count(*) from pa in Patients where pa.age < 40", "OQL statement for mode=query")
	sessions := fs.Int("sessions", 1, "concurrent sessions per round (each forks privately and runs the statement once)")
	rounds := fs.Int("rounds", 2, "measurement rounds; round 1 is cold, later rounds are pool-warm")
	pool := cli.PoolFlags(fs)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measured rounds to this file")
	direct := fs.Bool("direct", false, "open the snapshot with O_DIRECT (Linux): misses bypass the OS page cache, so cold means cold storage; silently buffered where unsupported")
	versus := fs.Bool("versus", false, "A/B the default readahead against none within one process: each round reloads on a fresh pool (always cold) alternating configs, reporting per-config minima — immune to machine-speed drift between processes")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("bench wants -file FILE")
	}
	if *sessions < 1 || *rounds < 1 {
		return fmt.Errorf("bench wants -sessions ≥ 1 and -rounds ≥ 1")
	}

	if err := pool.Setup(); err != nil {
		return err
	}
	load := persist.Load
	if *direct {
		load = persist.LoadDirect
	}
	fmt.Printf("direct=%v\n", *direct && persist.DirectIOSupported(*file))

	if *versus {
		return benchVersus(load, *file, *mode, *stmt, *sessions, *rounds, *pool.MB)
	}

	snap, err := load(*file)
	if err != nil {
		return err
	}
	fmt.Printf("file=%s pages=%d bufpool_mb=%d readahead=%d mode=%s sessions=%d\n",
		*file, snap.Engine.Pages(), *pool.MB, bufpool.DefaultReadahead, *mode, *sessions)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var resultCRC uint32
	for r := 1; r <= *rounds; r++ {
		start := time.Now()
		crc, err := runRound(snap, *mode, *stmt, *sessions)
		if err != nil {
			return err
		}
		if r == 1 {
			resultCRC = crc
		} else if crc != resultCRC {
			return fmt.Errorf("round %d produced different output (crc %08x, want %08x): warm pool changed results", r, crc, resultCRC)
		}
		fmt.Printf("round=%d wall_ms=%.2f\n", r, float64(time.Since(start).Microseconds())/1000)
	}
	fmt.Printf("result_crc=%08x\n", resultCRC)

	st := bufpool.Active().Stats()
	fmt.Printf("pool hits=%d misses=%d evictions=%d ra_issued=%d ra_used=%d ra_wasted=%d resident=%d capacity=%d\n",
		st.Hits, st.Misses, st.Evictions, st.ReadaheadIssued, st.ReadaheadUsed,
		st.ReadaheadWasted, st.ResidentPages, st.CapacityPages)
	// Release all garbage to the OS, then read RSS with the snapshot still
	// live: what remains is the steady-state working set — the bounded
	// pool plus every session's private state. KeepAlive pins the snapshot
	// past the reading; without it liveness analysis would let the
	// collector free the pool being measured.
	debug.FreeOSMemory()
	rss, hwm := readRSS()
	fmt.Printf("vm_rss_kb=%d vm_hwm_kb=%d\n", rss, hwm)
	runtime.KeepAlive(snap)
	return nil
}

// runRound executes one measured round in the chosen mode.
func runRound(snap *derby.Snapshot, mode, stmt string, sessions int) (uint32, error) {
	switch mode {
	case "query":
		return queryRound(snap, stmt, sessions)
	case "sweep":
		return sweepRound(snap.Engine.Base(), sessions)
	default:
		return 0, fmt.Errorf("unknown -mode %q (query or sweep)", mode)
	}
}

// benchVersus interleaves cold rounds of two readahead configs in one
// process, bufpool.DefaultReadahead and none: Setup replaces the global
// pool before each round, and the snapshot is reloaded so every round
// faults from scratch. Machine-speed drift (a noisy neighbor, thermal
// throttling) hits both configs equally; the per-config minimum estimates
// the undisturbed cost.
func benchVersus(load func(string) (*derby.Snapshot, error), file, mode, stmt string, sessions, rounds, poolMB int) error {
	readahead := bufpool.DefaultReadahead
	var raMS, noraMS []float64
	var resultCRC uint32
	first := true
	for r := 1; r <= rounds; r++ {
		for _, cfg := range []int{readahead, 0} {
			bufpool.Setup(poolMB, cfg)
			snap, err := load(file)
			if err != nil {
				return err
			}
			if first {
				fmt.Printf("file=%s pages=%d bufpool_mb=%d mode=%s sessions=%d versus readahead %d vs 0\n",
					file, snap.Engine.Pages(), poolMB, mode, sessions, readahead)
			}
			runtime.GC()
			start := time.Now()
			crc, err := runRound(snap, mode, stmt, sessions)
			if err != nil {
				return err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if first {
				resultCRC = crc
				first = false
			} else if crc != resultCRC {
				return fmt.Errorf("readahead=%d produced different output (crc %08x, want %08x)", cfg, crc, resultCRC)
			}
			if cfg == 0 {
				noraMS = append(noraMS, ms)
			} else {
				raMS = append(raMS, ms)
			}
			fmt.Printf("round=%d readahead=%d wall_ms=%.2f\n", r, cfg, ms)
		}
	}
	raBest, noraBest := minOf(raMS), minOf(noraMS)
	fmt.Printf("result_crc=%08x\n", resultCRC)
	fmt.Printf("ra_min_ms=%.2f nora_min_ms=%.2f ra_speedup=%.3f\n", raBest, noraBest, noraBest/raBest)
	debug.FreeOSMemory()
	rss, hwm := readRSS()
	fmt.Printf("vm_rss_kb=%d vm_hwm_kb=%d\n", rss, hwm)
	return nil
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// queryRound forks `sessions` private sessions concurrently, runs stmt
// once in each, and returns the CRC of the rendered table — identical
// across sessions and rounds by the determinism invariant, which this
// checks as it goes.
func queryRound(snap *derby.Snapshot, stmt string, sessions int) (uint32, error) {
	crcs := make([]uint32, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := session.New(snap.Fork().DB)
			res, err := s.Execute(stmt)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			session.WriteResult(&buf, session.ToWire(res, 5), 5)
			crcs[i] = crc32.ChecksumIEEE(buf.Bytes())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	for _, c := range crcs[1:] {
		if c != crcs[0] {
			return 0, fmt.Errorf("concurrent sessions rendered different tables under one pool")
		}
	}
	return crcs[0], nil
}

// sweepRound reads every page of the image sequentially on `workers`
// goroutines (disjoint contiguous slices) and returns a CRC over a
// per-page XOR digest — order-independent across workers, so the value
// is comparable at any worker count.
func sweepRound(base *storage.Base, workers int) (uint32, error) {
	n := base.NumPages()
	if workers > n {
		workers = n
	}
	digest := make([]byte, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				buf, err := base.Page(storage.PageID(i))
				if err != nil {
					errs[w] = err
					return
				}
				// Sample the page at a coarse stride: content-sensitive
				// enough for the identity oracle without the digest compute
				// swamping the I/O path being measured.
				var x byte
				for off := 0; off < len(buf); off += 512 {
					x ^= buf[off]
				}
				digest[i] = x
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return crc32.ChecksumIEEE(digest), nil
}

// readRSS parses VmRSS and VmHWM (KiB) from /proc/self/status; zero on
// platforms without procfs.
func readRSS() (rss, hwm int64) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var dst *int64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rss
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &hwm
		default:
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				*dst = v
			}
		}
	}
	return rss, hwm
}
