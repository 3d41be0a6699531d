package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one metric. The tables below are the single source
// BENCHMARK.json is generated from (bench -manifest) and checked against.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: the share of the parent's median it may worsen by
}

// End-to-end metrics: what a client of treebenchd sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},                  // spawn to first Ping OK to warm-up done; median of the run's rounds
	{"ops_per_s", "1/s", "higher", 0.25},             // completed ops (commits included) per second of window; median of rounds
	{"query_p50_ms", "ms", "lower", 0.25},            // query latency, nearest rank over all connections and rounds
	{"query_p95_ms", "ms", "lower", 0.25},            // the highest percentile every workload supports with 10 samples beyond it
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},    // daemon utime+stime over the window / ops; median of rounds
	{"server_allocs_per_op", "count", "lower", 0.05}, // daemon Mallocs delta over the window / ops; median of rounds
	{"server_alloc_kb_per_op", "kB", "lower", 0.05},  // daemon TotalAlloc delta over the window / ops; median of rounds
	{"server_rss_mb", "MB", "lower", 0.25},           // daemon VmHWM at window end; median of rounds
}

// Per-layer metrics, <module>.<metric>. Sources: U = the untraced daemon
// window of the traced run, T = self time or allocations of a replay
// span, P = a layer probe. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"client.query_p99_ms", "ms", "lower", 0},    // U; diagnostic tail, explains query_p95_ms
	{"client.query_max_ms", "ms", "lower", 0},    // U; diagnostic tail
	{"client.commits_per_s", "1/s", "higher", 0}, // U; acknowledged commits per second of window on write_mix (end-to-end in spirit: 0 elsewhere, so it cannot be declared as such)
	{"client.commit_p50_ms", "ms", "lower", 0},   // U; commit latency on write_mix
	{"client.commit_p95_ms", "ms", "lower", 0},   // U; commit latency on write_mix
	{"client.commit_p99_ms", "ms", "lower", 0},   // U; diagnostic tail; compaction stalls show here

	{"server.exec_p50_us", "us", "lower", 0},          // U; the daemon's own WallP50us -> query_p50_ms on point
	{"server.overhead_us", "us", "lower", 0},          // U-T; query_p50_ms minus the replay's req p50: TCP, admission, goroutine hand-off -> query_p50_ms, server_cpu_ms_per_op on point
	{"server.rejected", "count", "lower", 0},          // U; admission rejections in the window
	{"server.timeouts", "count", "lower", 0},          // U; queries past their budget in the window
	{"server.gc_cycles_per_kop", "count", "lower", 0}, // U; NumGC delta per 1000 ops -> query_p95_ms on write_mix

	{"wire.encode_query_us", "us", "lower", 0},  // T; Query.Encode+WriteFrame -> query_p50_ms on point
	{"wire.decode_query_us", "us", "lower", 0},  // T; ReadFrame+DecodeQuery
	{"wire.encode_result_us", "us", "lower", 0}, // T; Result.Encode+WriteFrame
	{"wire.decode_result_us", "us", "lower", 0}, // T; ReadFrame+DecodeResult
	{"wire.result_bytes", "bytes", "lower", 0},  // T; mean Result payload
	{"wire.allocs_per_op", "count", "lower", 0}, // T; allocations of the four wire steps -> server_allocs_per_op on point; flat on analytic

	{"session.fork_us", "us", "lower", 0},          // P; Snapshot.Fork+session.NewWith from what a connection forks -> query_p95_ms on write_mix
	{"session.fork_allocs", "count", "lower", 0},   // P; -> server_allocs_per_op on write_mix
	{"session.fork_kb", "kB", "lower", 0},          // P; -> server_alloc_kb_per_op on write_mix
	{"session.forks_per_kop", "count", "lower", 0}, // T; a fork per connection and per commit; flat on point
	{"session.to_wire_us", "us", "lower", 0},       // T; session.ToWire
	{"session.render_us", "us", "lower", 0},        // T; session.WriteResult, client side

	{"oql.parse_us", "us", "lower", 0},                 // P; oql.Parse over the replay's statements
	{"oql.plan_us", "us", "lower", 0},                  // T; Planner.PlanSource on a plan-cache miss -> query_p50_ms on point
	{"oql.plan_hit_us", "us", "lower", 0},              // T; Planner.PlanSource on a hit
	{"oql.plan_cache_hit_ratio", "ratio", "higher", 0}, // U; daemon plan-cache hits / lookups in the window
	{"oql.execute_us", "us", "lower", 0},               // T; Planner.Execute -> ops_per_s on analytic
	{"oql.execute_allocs", "count", "lower", 0},        // T; -> server_allocs_per_op
	{"oql.execute_kb", "kB", "lower", 0},               // T; -> server_alloc_kb_per_op

	{"engine.cold_restart_us", "us", "lower", 0},        // T; DB.ColdRestart before every cold query -> query_p50_ms on point
	{"engine.cold_restart_kb", "kB", "lower", 0},        // T; -> server_alloc_kb_per_op on point
	{"engine.qj_speedup", "ratio", "higher", 0},         // P; PHJ 50/90 with SetQueryJobs(1) / default -> ops_per_s on analytic
	{"engine.fork_mutable_us", "us", "lower", 0},        // T; Snapshot.ForkMutable -> commit latency on write_mix
	{"engine.publish_us", "us", "lower", 0},             // T; DB.Publish -> commit latency on write_mix
	{"engine.chain_versions_live", "count", "lower", 0}, // U; live chain versions at window end -> server_rss_mb on write_mix

	{"selection.fullscan_ms", "ms", "lower", 0},                 // P; selection.Run FullScan age<30 -> query_p50_ms on analytic
	{"selection.fullscan_allocs", "count", "lower", 0},          // P
	{"selection.indexscan_us", "us", "lower", 0},                // P; selection.Run IndexScan mrn<500 -> query_p50_ms on point
	{"selection.rows_examined_per_result", "ratio", "lower", 0}, // P; ScanNexts / rows of the full scan, exact

	{"join.phj_ms", "ms", "lower", 0},        // P; join.Run PHJ 50/90 -> ops_per_s on analytic; flat on point
	{"join.phj_allocs", "count", "lower", 0}, // P
	{"join.phj_mb", "MB", "lower", 0},        // P; bytes allocated by one PHJ
	{"join.nl_ms", "ms", "lower", 0},         // P; join.Run NL 90/90 -> query_p95_ms on analytic

	{"index.lookup_us", "us", "lower", 0},           // P; Backend.Lookup on Patients.mrn, warm -> query_p50_ms on point
	{"index.scan_keys_per_us", "1/us", "higher", 0}, // P; Backend.Scan over every key
	{"index.pages_per_lookup", "count", "lower", 0}, // P; meter DiskReads per cold lookup, exact

	{"storage.page_hit_ns", "ns", "lower", 0},              // P; Base.Page on a resident page -> ops_per_s on analytic and pool_pressure
	{"bufpool.miss_us", "us", "lower", 0},                  // P; first touch of a page after bufpool.Setup+persist.Load -> query_p50_ms on pool_pressure
	{"bufpool.hit_ratio", "ratio", "higher", 0},            // U; daemon pool hits / gets in the window; about 1 on analytic
	{"bufpool.misses_per_op", "count", "lower", 0},         // U; -> ops_per_s on pool_pressure
	{"bufpool.evictions_per_op", "count", "lower", 0},      // U
	{"bufpool.readahead_used_ratio", "ratio", "higher", 0}, // U; prefetched pages consumed / issued
	{"bufpool.resident_mb", "MB", "lower", 0},              // U; resident frames at window end -> server_rss_mb

	{"persist.save_s", "s", "lower", 0},              // P; persist.Save of the image -> setup_s on point and write_mix
	{"persist.load_ms", "ms", "lower", 0},            // P; persist.Load -> setup_s on analytic and pool_pressure
	{"persist.snapshot_mb", "MB", "lower", 0},        // P; snapshot file size
	{"persist.encode_commit_ms", "ms", "lower", 0},   // T; persist.EncodeCommit -> commit latency on write_mix
	{"persist.apply_commit_ms", "ms", "lower", 0},    // P; DecodeCommit+Apply, the recovery path -> persist.recover_s
	{"persist.compact_ms", "ms", "lower", 0},         // P; ChainStore.Compact after 8 commits -> client.commit_p99_ms
	{"persist.compactions", "count", "higher", 0},    // U; background compactions in the window
	{"persist.recover_s", "s", "lower", 0},           // U; reboot on the same directory after kill -9, spawn to first Ping OK
	{"persist.recover_commits", "count", "lower", 0}, // U; WAL records the reboot replayed

	{"wal.bytes_per_commit", "bytes", "lower", 0},  // U; exact -> commit latency, commits_per_s on write_mix
	{"wal.records_per_sync", "ratio", "higher", 0}, // U; group-commit factor
	{"wal.enqueue_us", "us", "lower", 0},           // T; Log.Enqueue
	{"wal.wait_ms", "ms", "lower", 0},              // T; Pending.Wait: write + fsync

	{"derby.generate_s", "s", "lower", 0},               // P; derby.Generate+Freeze -> setup_s on point and write_mix
	{"derby.apply_wave_ms", "ms", "lower", 0},           // T; derby.ApplyWave -> commit latency on write_mix
	{"derby.relocated_per_commit", "count", "lower", 0}, // U; objects relocated per acknowledged commit

	{"bench.box_slowdown", "ratio", "lower", 0},   // the calibration loop against its reference time during the run; what end-to-end timings are divided by
	{"trace.overhead_ratio", "ratio", "lower", 0}, // T; replay wall time with the recorder on / off
	{"trace.spans", "count", "higher", 0},         // T; spans recorded by the timing pass
}

// runSeconds is the measured window the driver asks for (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 15

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// layerMetrics assembles the per-layer metrics of one traced run from its
// daemon window (u), its replay (rep) and its probes and preparation
// timings (m, which it completes and returns).
func layerMetrics(u *measured, rep *replayed, m map[string]float64) map[string]float64 {
	var ops, commits, rejected, timeouts, gcs float64
	var hits, misses, poolHits, poolMisses, evictions, raIssued, raUsed float64
	var compactions, walBytes, walRecords, walSyncs, relocated float64
	for _, rd := range u.rounds {
		a, b := rd.after, rd.before
		ops += float64(rd.ops)
		commits += float64(rd.commits)
		gcs += rd.gcs
		relocated += float64(rd.relocated)
		rejected += float64(a.Rejected - b.Rejected)
		timeouts += float64(a.TimedOut - b.TimedOut)
		hits += float64(a.PlanCacheHits - b.PlanCacheHits)
		misses += float64(a.PlanCacheMisses - b.PlanCacheMisses)
		poolHits += float64(a.PoolHits - b.PoolHits)
		poolMisses += float64(a.PoolMisses - b.PoolMisses)
		evictions += float64(a.PoolEvictions - b.PoolEvictions)
		raIssued += float64(a.PoolReadaheadIssued - b.PoolReadaheadIssued)
		raUsed += float64(a.PoolReadaheadUsed - b.PoolReadaheadUsed)
		compactions += float64(a.Compactions - b.Compactions)
		walBytes += float64(a.WalBytes - b.WalBytes)
		walRecords += float64(a.WalRecords - b.WalRecords)
		walSyncs += float64(a.WalSyncs - b.WalSyncs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	last := u.rounds[len(u.rounds)-1]
	q, c := u.qMs, u.cMs

	m["client.query_p99_ms"] = percentile(q, 99)
	m["client.query_max_ms"] = percentile(q, 100)
	m["client.commits_per_s"] = median(u.over(func(rd *round) float64 { return float64(rd.commits) / rd.wallS }))
	m["client.commit_p50_ms"] = percentile(c, 50)
	m["client.commit_p95_ms"] = percentile(c, 95)
	m["client.commit_p99_ms"] = percentile(c, 99)

	m["server.exec_p50_us"] = float64(last.after.WallP50us)
	m["server.rejected"] = rejected
	m["server.timeouts"] = timeouts
	m["server.gc_cycles_per_kop"] = ratio(gcs, ops) * 1000
	m["oql.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.chain_versions_live"] = float64(last.after.Versions)
	m["bufpool.hit_ratio"] = ratio(poolHits, poolHits+poolMisses)
	m["bufpool.misses_per_op"] = ratio(poolMisses, ops)
	m["bufpool.evictions_per_op"] = ratio(evictions, ops)
	m["bufpool.readahead_used_ratio"] = ratio(raUsed, raIssued)
	m["bufpool.resident_mb"] = float64(last.after.PoolResidentPages) * 4096 / (1 << 20)
	m["persist.compactions"] = compactions
	m["persist.recover_s"] = last.recoverS
	m["persist.recover_commits"] = float64(last.recoverCommits)
	m["wal.bytes_per_commit"] = ratio(walBytes, walRecords)
	m["wal.records_per_sync"] = ratio(walRecords, walSyncs)
	m["derby.relocated_per_commit"] = ratio(relocated, commits)

	on, mem := selfSamples(rep.on.spans), selfSamples(rep.mem.spans)
	p50 := func(s []selfCost, f func(selfCost) int64, div float64) float64 {
		v := make([]float64, len(s))
		for i, c := range s {
			v[i] = float64(f(c)) / div
		}
		return median(v)
	}
	ns := func(c selfCost) int64 { return c.ns }
	mallocs := func(c selfCost) int64 { return c.mallocs }
	bytes := func(c selfCost) int64 { return c.bytes }
	for _, t := range []struct {
		metric, span string
		div          float64
	}{
		{"wire.encode_query_us", "wire.encode_query", 1e3},
		{"wire.decode_query_us", "wire.decode_query", 1e3},
		{"wire.encode_result_us", "wire.encode_result", 1e3},
		{"wire.decode_result_us", "wire.decode_result", 1e3},
		{"session.to_wire_us", "session.to_wire", 1e3},
		{"session.render_us", "session.render", 1e3},
		{"oql.plan_us", "oql.plan_miss", 1e3},
		{"oql.plan_hit_us", "oql.plan_hit", 1e3},
		{"oql.execute_us", "oql.execute", 1e3},
		{"engine.cold_restart_us", "engine.cold_restart", 1e3},
		{"engine.fork_mutable_us", "engine.fork_mutable", 1e3},
		{"engine.publish_us", "engine.publish", 1e3},
		{"persist.encode_commit_ms", "persist.encode_commit", 1e6},
		{"wal.enqueue_us", "wal.enqueue", 1e3},
		{"wal.wait_ms", "wal.wait", 1e6},
		{"derby.apply_wave_ms", "derby.apply_wave", 1e6},
	} {
		m[t.metric] = p50(on[t.span], ns, t.div)
	}
	m["oql.execute_allocs"] = p50(mem["oql.execute"], mallocs, 1)
	m["oql.execute_kb"] = p50(mem["oql.execute"], bytes, 1024)
	m["engine.cold_restart_kb"] = p50(mem["engine.cold_restart"], bytes, 1024)
	var wireAllocs float64
	for _, name := range []string{"wire.encode_query", "wire.decode_query", "wire.encode_result", "wire.decode_result"} {
		for _, c := range mem[name] {
			wireAllocs += float64(c.mallocs)
		}
	}
	m["wire.allocs_per_op"] = ratio(wireAllocs, float64(len(mem["req"])))
	m["wire.result_bytes"] = rep.on.meanCount("wire.result_bytes")
	m["session.forks_per_kop"] = ratio(float64(len(on["session.fork"])), float64(rep.ops)) * 1000

	// The whole in-process request against the whole remote one: what is
	// left is the socket, admission and the hand-off between goroutines.
	var reqUs []float64
	for _, s := range rep.on.spans {
		if s.Name == "req" {
			reqUs = append(reqUs, float64(s.End-s.Start)/1e3)
		}
	}
	m["server.overhead_us"] = percentile(q, 50)*1000 - median(reqUs)
	m["bench.box_slowdown"] = u.slowdown
	m["trace.overhead_ratio"] = ratio(rep.onS, rep.offS)
	m["trace.spans"] = float64(len(rep.on.spans))
	return m
}

// percentiles names the metrics that are percentiles of the client's
// query or commit latencies.
var percentiles = map[string]struct {
	commits bool
	p       float64
}{
	"query_p50_ms": {false, 50}, "query_p95_ms": {false, 95}, "client.query_p99_ms": {false, 99},
	"client.commit_p50_ms": {true, 50}, "client.commit_p95_ms": {true, 95}, "client.commit_p99_ms": {true, 99},
}

// result is what one run of one workload reports: the driver's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(u *measured, defs []metricDef, values map[string]float64) *result {
	res := &result{
		Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res
}

// printMetrics writes the human-readable table of one run; wall, when
// given, holds the same metrics on the uncalibrated clock.
func printMetrics(w io.Writer, title string, u *measured, defs []metricDef, values, wall map[string]float64) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed", title, u.attempted, u.failed)
	if u.distinct > 0 {
		fmt.Fprintf(w, ", oracle re-executed %d distinct statements", u.distinct)
	}
	fmt.Fprintln(w)
	if u.firstErr != nil {
		fmt.Fprintf(w, "   first error: %v\n", u.firstErr)
	}
	// Sample counts stand beside every percentile, with a mark where
	// fewer than minBeyond samples lie beyond it.
	samples := func(name string) string {
		pc, ok := percentiles[name]
		pop := u.qMs
		if pc.commits {
			pop = u.cMs
		}
		if !ok || len(pop) == 0 {
			return ""
		}
		note := fmt.Sprintf("  n=%d, %d beyond", len(pop), len(pop)-rank(len(pop), pc.p))
		if !supported(len(pop), pc.p) {
			note += fmt.Sprintf(" (fewer than %d: unsupported)", minBeyond)
		}
		return note
	}
	for _, d := range defs {
		note := samples(d.name)
		if raw, ok := wall[d.name]; ok && raw != values[d.name] {
			note = fmt.Sprintf("  (wall clock %.4f)", raw) + note
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-6s%s\n", d.name, values[d.name], d.unit, note)
	}
}

// printRepeat writes the -repeat table of one workload and returns how
// many end-to-end metrics spread wider than their bound.
func printRepeat(w io.Writer, name string, runs, wall []map[string]float64) int {
	fmt.Fprintf(w, "== %s: %d runs; spread = (q3-q1)/median\n", name, len(runs))
	over := 0
	for _, d := range endToEnd {
		v, raw := make([]float64, len(runs)), make([]float64, len(runs))
		for i := range runs {
			v[i], raw[i] = runs[i][d.name], wall[i][d.name]
		}
		s, sp := sorted(v), spread(v)
		flag := ""
		switch {
		case d.name == "setup_s":
			// Judged on its median only.
		case sp > d.bound:
			flag = "  EXCEEDS BOUND"
			over++
		case sp > d.bound/3:
			flag = "  above a third of the bound"
		}
		fmt.Fprintf(w, "   %-24s median %12.4f  min %12.4f  max %12.4f  spread %6.2f%%  (wall clock %6.2f%%)  bound %4.0f%%%s\n",
			d.name, median(s), s[0], s[len(s)-1], 100*sp, 100*spread(raw), 100*d.bound, flag)
	}
	return over
}
