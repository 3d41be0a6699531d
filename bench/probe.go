package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/join"
	"treebench/internal/oql"
	"treebench/internal/persist"
	"treebench/internal/selection"
	"treebench/internal/storage"
	"treebench/internal/wal"
)

// Layer probes: direct calls of each lower layer's public entry point,
// with the parameters the workloads use. They see what the replay cannot,
// the layers underneath oql.execute.

// timed runs fn reps times and returns the median duration in the unit
// given (time.Millisecond, time.Microsecond, …).
func timed(reps int, unit time.Duration, fn func() error) (float64, error) {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v[i] = float64(time.Since(t0)) / float64(unit)
	}
	return median(v), nil
}

// heapDelta returns the objects and bytes fn allocates.
func heapDelta(fn func() error) (mallocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

// probePages times the first touch of every page of a freshly loaded
// snapshot, in an order that never looks sequential to the pool's
// readahead, then the second touch of pages that are still resident.
func probePages(ld *derby.Snapshot, m map[string]float64) error {
	base := ld.Engine.Base()
	order := rand.New(rand.NewSource(1)).Perm(base.NumPages())
	miss := make([]float64, len(order))
	for i, pg := range order {
		t0 := time.Now()
		if _, err := base.Page(storage.PageID(pg)); err != nil {
			return err
		}
		miss[i] = float64(time.Since(t0)) / 1e3
	}
	m["bufpool.miss_us"] = median(miss)
	// The most recently touched pages are resident under any pool size.
	recent := order
	if len(recent) > 1024 {
		recent = recent[len(recent)-1024:]
	}
	const passes = 64
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		for _, pg := range recent {
			if _, err := base.Page(storage.PageID(pg)); err != nil {
				return err
			}
		}
	}
	m["storage.page_hit_ns"] = float64(time.Since(t0)) / float64(passes*len(recent))
	return nil
}

// probeRead measures selection, join, index and session fork over snap,
// and parsing over the replay's statements.
func probeRead(snap *derby.Snapshot, sc scale, stmts []string, m map[string]float64) error {
	d := snap.Fork()
	db := d.DB

	// A third of the patients are under 30: the scan examines them all.
	full := selection.Request{Extent: d.Patients, Where: selection.Pred{Attr: "age", Op: selection.Lt, K: 30}, Projects: []string{"mrn"}}
	var sres *selection.Result
	scan := func() (err error) {
		db.ColdRestart()
		sres, err = selection.Run(db, full, selection.FullScan)
		return err
	}
	var err error
	if m["selection.fullscan_ms"], err = timed(7, time.Millisecond, scan); err != nil {
		return err
	}
	if m["selection.fullscan_allocs"], _, err = heapDelta(scan); err != nil {
		return err
	}
	if sres.Rows > 0 {
		m["selection.rows_examined_per_result"] = float64(sres.Counters.ScanNexts) / float64(sres.Rows)
	}
	byKey := selection.Request{Extent: d.Patients, Where: selection.Pred{Attr: "mrn", Op: selection.Lt, K: 500}, Projects: []string{"age"}}
	if m["selection.indexscan_us"], err = timed(200, time.Microsecond, func() error {
		db.ColdRestart()
		_, err := selection.Run(db, byKey, selection.IndexScan)
		return err
	}); err != nil {
		return err
	}

	phjOn := func(env *join.Env) func() error {
		return func() error {
			env.DB.ColdRestart()
			_, err := join.Run(env, join.PHJ, env.BySelectivity(50, 90))
			return err
		}
	}
	env := join.EnvForDerby(snap.Fork())
	if m["join.phj_ms"], err = timed(5, time.Millisecond, phjOn(env)); err != nil {
		return err
	}
	var phjBytes float64
	if m["join.phj_allocs"], phjBytes, err = heapDelta(phjOn(env)); err != nil {
		return err
	}
	m["join.phj_mb"] = phjBytes / (1 << 20)
	// The same join on a fork of its own with intra-query parallelism off,
	// over the default.
	serial := join.EnvForDerby(snap.Fork())
	serial.DB.SetQueryJobs(1)
	serialMs, err := timed(5, time.Millisecond, phjOn(serial))
	if err != nil {
		return err
	}
	m["engine.qj_speedup"] = serialMs / m["join.phj_ms"]
	if m["join.nl_ms"], err = timed(3, time.Millisecond, func() error {
		env.DB.ColdRestart()
		_, err := join.Run(env, join.NL, env.BySelectivity(90, 90))
		return err
	}); err != nil {
		return err
	}

	if err := probeIndex(db, sc, m); err != nil {
		return err
	}

	parse := make([]float64, 0, len(stmts))
	for _, s := range stmts {
		t0 := time.Now()
		if _, err := oql.Parse(s); err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(t0))/1e3)
	}
	m["oql.parse_us"] = median(parse)
	return nil
}

// probeIndex measures the Patients.mrn index backend through db's pager.
func probeIndex(db *engine.Database, sc scale, m map[string]float64) error {
	mrn := db.IndexOn("Patients", "mrn")
	if mrn == nil {
		return fmt.Errorf("probe: no index on Patients.mrn")
	}
	ix, p := mrn.Backend, db.Client
	r := rand.New(rand.NewSource(2))
	n := sc.patients()
	const batch = 100
	var err error
	if m["index.lookup_us"], err = timed(50, time.Microsecond, func() error {
		for i := 0; i < batch; i++ {
			if _, err := ix.Lookup(p, int64(1+r.Intn(n))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["index.lookup_us"] /= batch
	scanUs, err := timed(5, time.Microsecond, func() error {
		return ix.Scan(p, 1, int64(n)+1, func(index.Entry) (bool, error) { return true, nil })
	})
	if err != nil {
		return err
	}
	m["index.scan_keys_per_us"] = float64(n) / scanUs
	var pages int64
	const lookups = 50
	for i := 0; i < lookups; i++ {
		db.ColdRestart()
		if _, err := ix.Lookup(p, int64(1+r.Intn(n))); err != nil {
			return err
		}
		pages += db.Meter.Snapshot().DiskReads
	}
	m["index.pages_per_lookup"] = float64(pages) / lookups
	return nil
}

// probeFork measures the session fork a connection pays on its first
// query and after each commit, from the snapshot it would fork there.
func probeFork(from *derby.Snapshot, m map[string]float64) error {
	fork := func() error { forkSession(from); return nil }
	us, err := timed(15, time.Microsecond, fork)
	if err != nil {
		return err
	}
	// Reading the heap waits for a running collection, so allocations are
	// counted apart from the timing.
	allocs, bytes, _ := heapDelta(fork)
	m["session.fork_us"], m["session.fork_allocs"], m["session.fork_kb"] = us, allocs, bytes/1024
	return nil
}

// probeWrite measures the write side's recovery and compaction calls:
// decoding and applying commit records as WAL replay does, and
// ChainStore.Compact on a store of its own. It returns the head of a short
// chain, the kind of snapshot a write_mix connection forks from.
func (r *runner) probeWrite(ld *derby.Snapshot, m map[string]float64) (*derby.Snapshot, error) {
	const commits = 8
	walPath := filepath.Join(r.work, "probe.wal")
	defer os.Remove(walPath)
	ch, err := newChainReplica(ld, walPath)
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: &tracer{}, ch: ch}
	parents := make([]*derby.Snapshot, commits)
	for i := range parents {
		parents[i] = rp.head()
		if err := rp.commit(); err != nil {
			ch.log.Close()
			return nil, err
		}
	}
	head := rp.head()
	if err := ch.log.Close(); err != nil {
		return nil, err
	}
	var applyMs []float64
	if _, err := wal.Scan(walPath, func(off int64, payload []byte) error {
		t0 := time.Now()
		rec, err := persist.DecodeCommit(payload)
		if err != nil {
			return err
		}
		if _, err := rec.Apply(parents[len(applyMs)], off); err != nil {
			return err
		}
		applyMs = append(applyMs, float64(time.Since(t0))/1e6)
		return nil
	}); err != nil {
		return nil, err
	}
	m["persist.apply_commit_ms"] = median(applyMs)

	dir := filepath.Join(r.work, "probe-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	basePath := filepath.Join(dir, "base.tbsp")
	image, err := os.ReadFile(r.prep.snapPath)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(basePath, image, 0o644); err != nil {
		return nil, err
	}
	store, _, err := persist.OpenChainStore(basePath, filepath.Join(dir, "wal"), waveSpec())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var compactMs []float64
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < commits; i++ {
			if _, _, err := store.Update(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if _, err := store.Compact(); err != nil {
			return nil, err
		}
		compactMs = append(compactMs, float64(time.Since(t0))/1e6)
	}
	m["persist.compact_ms"] = median(compactMs)
	return head, nil
}
