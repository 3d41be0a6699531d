package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// scale is the Derby database every workload runs over.
type scale struct{ providers, avg int }

var (
	fullScale  = scale{2000, 100} // 200 000 patients, 8 384 pages, 33 MB on disk
	quickScale = scale{200, 20}
)

func (s scale) patients() int { return s.providers * s.avg }

// boot says how a workload's daemon comes up, which is what setup_s times.
type boot int

const (
	bootCold boot = iota // empty snapshot dir: generate, freeze, save
	bootWarm             // snapshot file present: load it, pages fault in on first touch
	bootWAL              // -wal on an empty dir: generate the chain base, open the log
)

// workload is one traffic mix. Every workload is a closed loop: a
// connection sends its next request when the previous one is answered.
type workload struct {
	name, why string
	// stream names the statement generator; two workloads with the same
	// stream and seed issue the same statements.
	stream      string
	conns       int     // at most nproc on the 2-CPU reference box
	warmup      int     // ops per connection before each measured window
	replayOps   int     // ops of connection 0 the traced pass replays in-process
	commitShare float64 // fraction of ops that are commits
	boot        boot
	poolMB      int // daemon -bufpool-mb; 0 keeps the default (256)
}

var workloads = []workload{
	{
		name: "point",
		why: "190 us index selections and tiny joins, 90% from a 64-statement hot pool: " +
			"wire, admission, cold restart, plan cache and fork are most of a request, operators almost none",
		stream: "point", conns: 2, warmup: 2000, replayOps: 5000, boot: bootCold,
	},
	{
		name: "analytic",
		why: "7-40 ms scans, aggregates, order-by and 50/90 + 90/90 tree joins on one connection, all pages resident: " +
			"time is in selection/join/engine/object and an idle core lets intra-query parallelism pay",
		stream: "analytic", conns: 1, warmup: 30, replayOps: 120, boot: bootWarm,
	},
	{
		name: "pool_pressure",
		why: "the analytic statements under -bufpool-mb 8, a quarter of the image: " +
			"only residency differs, so the gap to analytic is bufpool miss/evict/readahead and persist file reads",
		stream: "analytic", conns: 1, warmup: 30, replayOps: 120, boot: bootWarm, poolMB: 8,
	},
	{
		name: "write_mix",
		why: "20% commits among point queries on 2 connections with -wal: the only place wal, commit encode, " +
			"update waves, re-fork after commit, chain GC and background compaction run",
		stream: "write_mix", conns: 2, warmup: 100, replayOps: 300, commitShare: 0.2, boot: bootWAL,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Flags every write_mix daemon gets. -wave-grow-every 48 is forced: with
// the default 4 the 38th growth wave (commit 152) fails with "record of
// 3737 bytes too large for a heap page"; at 48 that is commit 1824, so no
// store may ever see more than commitCeiling commits.
const (
	compactEvery  = 64
	waveGrowEvery = 48
	commitCeiling = 1800
)

// op is one request of a stream: a commit, or a read-only statement.
type op struct {
	commit bool
	stmt   string
}

// opStream is one connection's requests: a pure function of (stream name,
// seed, connection), consumed in order by the warm-up, then the window.
type opStream struct {
	r           *rand.Rand
	next        func(r *rand.Rand) string
	commitShare float64
	// cycle is the number of consecutive ops that hold every statement
	// class in exactly its share (1 when classes are drawn at random).
	cycle   int
	issued  int
	commits int
}

func newStream(w workload, sc scale, seed int64, conn int) *opStream {
	// The statement pools depend on the seed alone, so connections share
	// their hot statements; the draws depend on the connection too.
	pool := rand.New(rand.NewSource(subSeed(w.stream, seed, -1)))
	s := &opStream{
		r:           rand.New(rand.NewSource(subSeed(w.stream, seed, conn))),
		commitShare: w.commitShare,
	}
	if w.stream == "analytic" {
		s.next, s.cycle = analyticStatements(pool, sc), len(analyticCycle)
	} else {
		s.next, s.cycle = pointStatements(pool, sc), 1
	}
	return s
}

func subSeed(stream string, seed int64, conn int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", stream, seed, conn)
	return int64(h.Sum64())
}

// Next returns the stream's next op. Commits are placed by oqlload's
// error-diffusion rule, so a stream holds exactly its share of them.
func (s *opStream) Next() op {
	s.issued++
	if float64(s.commits) < s.commitShare*float64(s.issued) {
		s.commits++
		return op{commit: true}
	}
	return op{stmt: s.next(s.r)}
}

// stratum draws a literal from the i-th of n equal slices of [1, max].
// Pools built from strata cover the range evenly whatever the seed, so a
// workload's mean cost and its latency distribution do not move with it.
func stratum(r *rand.Rand, i, n, max int) int {
	w := float64(max) / float64(n)
	k := 1 + int((float64(i)+r.Float64())*w)
	if k > max {
		k = max
	}
	return k
}

const (
	rowsStmt  = "select pa.name, pa.age from pa in Patients where pa.mrn < %d"
	countStmt = "select count(*) from pa in Patients where pa.mrn < %d"
	joinStmt  = "select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < %d and p.upin < %d"
)

// pointStatements returns the point generator: 90% of draws come from a
// 64-statement hot pool (24 row selections, 24 counts, 16 tiny joins) and
// 10% carry fresh literals (at most 4 000 distinct), so the 256-entry plan
// cache both hits and churns.
func pointStatements(pool *rand.Rand, sc scale) func(*rand.Rand) string {
	kMax := 1000
	if q := sc.patients() / 4; q < kMax {
		kMax = q
	}
	pMax := 20
	hot := make([]string, 0, 64)
	for i := 0; i < 24; i++ {
		hot = append(hot, fmt.Sprintf(rowsStmt, stratum(pool, i, 24, kMax)))
	}
	for i := 0; i < 24; i++ {
		hot = append(hot, fmt.Sprintf(countStmt, stratum(pool, i, 24, kMax)))
	}
	for i := 0; i < 16; i++ {
		// i*5%16 walks the provider strata in another order than the
		// patient strata, so the two bounds are not correlated.
		hot = append(hot, fmt.Sprintf(joinStmt, stratum(pool, i, 16, 2*kMax), stratum(pool, i*5%16, 16, pMax)))
	}
	return func(r *rand.Rand) string {
		if r.Intn(10) != 0 {
			return hot[r.Intn(len(hot))]
		}
		switch c := r.Intn(8); {
		case c < 3:
			return fmt.Sprintf(rowsStmt, 1+r.Intn(kMax))
		case c < 6:
			return fmt.Sprintf(countStmt, 1+r.Intn(kMax))
		default:
			k1 := 1 + r.Intn(2*kMax)
			return fmt.Sprintf(joinStmt, k1, 1+k1%pMax)
		}
	}
}

// analyticCycle fixes each class's share of the stream: of 20 ops, 3
// counts, 6 aggregates, 5 order-bys, 2 indexed ranges, 2 PHJ joins and 2 NL
// joins (the numbers index analyticStatements' classes). Sorted by today's
// cost that is range 10%, PHJ 20%, count 35%, aggregate 65%, order-by 90%,
// NL 100%, which puts the median in the middle of the aggregate class and
// p95 in the middle of the NL class, away from the gaps between classes
// where a percentile would flap.
var analyticCycle = [20]int{1, 2, 0, 1, 4, 2, 1, 3, 5, 2, 1, 0, 2, 1, 4, 3, 2, 1, 0, 5}

// analyticStatements returns the analytic generator: six statement
// classes in fixed shares, each but the first with 8 literals spread over
// a narrow band of selectivity (41 distinct statements per seed).
func analyticStatements(pool *rand.Rand, sc scale) func(*rand.Rand) string {
	const variants = 8
	n, p := sc.patients(), sc.providers
	// between draws the j-th literal from the j-th slice of [lo, hi].
	between := func(lo, hi, j int) int { return lo - 1 + stratum(pool, j, variants, hi-lo+1) }
	classes := make([][]string, 6)
	classes[0] = []string{"select count(*) from pa in Patients"}
	for j := 0; j < variants; j++ {
		classes[1] = append(classes[1], fmt.Sprintf(
			"select avg(pa.age), min(pa.age), max(pa.age) from pa in Patients where pa.age < %d", between(72, 88, j)))
		classes[2] = append(classes[2], fmt.Sprintf(
			"select pa.mrn from pa in Patients where pa.age < %d order by pa.age", between(27, 33, j)))
		classes[3] = append(classes[3], fmt.Sprintf(
			"select pa.mrn, pa.age from pa in Patients where pa.mrn < %d", between(n*9/100, n*11/100, j)))
		// 50/90 +-10%: the planner picks PHJ.
		classes[4] = append(classes[4], fmt.Sprintf(joinStmt, between(n*45/100, n*55/100, j), p*9/10))
		// 90/90 and up: the planner picks NL from 87% of the patients on.
		classes[5] = append(classes[5], fmt.Sprintf(joinStmt, between(n*90/100, n*99/100, j), p*9/10))
	}
	i := 0
	return func(r *rand.Rand) string {
		c := classes[analyticCycle[i%len(analyticCycle)]]
		i++
		return c[r.Intn(len(c))]
	}
}
