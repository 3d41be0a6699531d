package core

import (
	"fmt"

	"treebench/internal/backend"
	"treebench/internal/derby"
	"treebench/internal/index"
	"treebench/internal/selection"
)

// The B1 ablation: the same database and workload under each pluggable
// index backend. The paper's figures assume one physical index — the B1
// table asks what changes when that assumption moves: an LSM absorbs the
// update waves' index maintenance in its memtable (write absorption),
// and pays for it on reads, where a range or point scan must merge every
// SSTable overlapping the key range (read amplification) — except where
// a bloom filter proves a table irrelevant for the price of a hash
// probe. Query results are byte-identical across backends by
// construction; only the cost accounting moves.

// backendWaves is how many update waves the ablation applies before the
// post-wave read phase. 128 waves at the default spec push ~6,100 index
// maintenance records through each backend: enough to flush the LSM
// memtable several times and trip at least one size-tiered compaction,
// so the post-wave reads face a multi-table structure, not a freshly
// bulk-loaded one. Wave contents are a pure function of (spec, wave), so
// the resulting structure is identical on every run.
const backendWaves = 128

// backendPointReads is how many point reads the post-wave read phase
// issues, spread evenly over the key domain.
const backendPointReads = 64

// backendSnapshot generates (or reuses) the selection database under one
// specific index backend. Each backend gets its own dataset key, so one
// Runner holds both generations side by side.
func (r *Runner) backendSnapshot(kind string) (*derby.Snapshot, error) {
	p, a := r.smallScale()
	key := r.dsKeyFor(p, a, derby.ClassCluster)
	key.backend = backend.Normalize(kind)
	return r.snapshot(key)
}

// pointKeys spreads n point-read keys over the dense 1..max num domain.
func pointKeys(maxKey, n int) []int64 {
	keys := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, 1+int64(i)*int64(maxKey)/int64(n))
	}
	return keys
}

// Backends reproduces the indexed-selection experiment under each index
// backend and adds the update-wave ablation: pages written by the waves,
// then cold point reads over the post-wave structure — once through the
// query path (an Eq index scan, which merges components and cannot use
// blooms) and once through the point-lookup path (which can).
func (r *Runner) Backends() (*Table, error) {
	t := &Table{
		ID: "B1",
		Title: fmt.Sprintf("Index backends on the %s database: write absorption vs read amplification (%d waves, %d point reads)",
			dbLabel(r.smallScale()), backendWaves, backendPointReads),
		Columns: []string{"backend", "sel 5% pages", "sel 5% time", "wave write pages",
			"compactions", "point scans pages", "point lookups pages", "bloom skip%"},
	}
	for _, kind := range backend.Kinds() {
		row, err := r.backendRow(kind)
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", kind, err)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"query results are byte-identical across backends; only where the pages and probes land differs",
		"wave write pages: data+log+index pages written by the update waves — the LSM's memtable absorbs index maintenance the B+-tree pays per update",
		"point scans (the Eq query path) merge every overlapping SSTable, so the LSM's post-wave read amplification is honestly higher; point lookups may skip tables by bloom probe",
	)
	return t, nil
}

// backendRow measures one backend: fresh-database indexed selection,
// update waves on a mutable fork, then cold post-wave point reads on
// that fork.
func (r *Runner) backendRow(kind string) ([]any, error) {
	sn, err := r.backendSnapshot(kind)
	if err != nil {
		return nil, err
	}

	// Fresh database: the §4.2 cold indexed selection at 5%.
	d := sn.Fork()
	d.DB.SetQueryJobs(r.queryJobs())
	sel, err := r.coldSelection(d, 50, selection.IndexScan)
	if err != nil {
		return nil, err
	}

	// Update waves on a mutable fork. DiskWrites+LogPages is the full
	// write bill: data pages, log pages, and — through each backend's
	// cost source — index pages, flushes and compactions, billed to the
	// wave that tripped them.
	md := sn.ForkMutable()
	md.DB.SetQueryJobs(r.queryJobs())
	spec := derby.DefaultWaveSpec()
	before := md.DB.Meter.Snapshot()
	bcBefore := md.DB.BackendCounters()
	for w := uint64(1); w <= backendWaves; w++ {
		if _, err := derby.ApplyWave(md, w, spec); err != nil {
			return nil, err
		}
	}
	after := md.DB.Meter.Snapshot()
	wrote := (after.DiskWrites - before.DiskWrites) + (after.LogPages - before.LogPages)
	bcWaves := backendCountersDelta(bcBefore, md.DB.BackendCounters())
	r.logf("  %-5s waves: %d pages written, %d compactions, %d backend pages",
		kind, wrote, bcWaves.Compactions, bcWaves.PagesWritten)

	ix := md.DB.IndexOn("Patients", "num")
	if ix == nil {
		return nil, fmt.Errorf("no index on Patients.num")
	}
	keys := pointKeys(md.NumPatients, backendPointReads)

	// Post-wave cold point reads, query path: an Eq predicate runs as an
	// index scan over [k, k+1), which merges every component overlapping
	// the key — blooms cannot help a range cursor.
	md.DB.ColdRestart()
	for _, k := range keys {
		if err := ix.Backend.Scan(md.DB.Client, k, k+1, func(index.Entry) (bool, error) {
			return true, nil
		}); err != nil {
			return nil, err
		}
	}
	scanPages := md.DB.Meter.Snapshot().DiskReads

	// Post-wave cold point reads, lookup path: the write path's existence
	// checks and navigations go through Lookup, where a bloom probe can
	// skip an SSTable for the price of the probe.
	md.DB.ColdRestart()
	c0 := md.DB.BackendCounters()
	for _, k := range keys {
		if _, err := ix.Backend.Lookup(md.DB.Client, k); err != nil {
			return nil, err
		}
	}
	lookupPages := md.DB.Meter.Snapshot().DiskReads
	c1 := backendCountersDelta(c0, md.DB.BackendCounters())
	skip := "-"
	if probes := c1.BloomHits + c1.BloomMisses; probes > 0 {
		skip = fmt.Sprintf("%.0f%%", 100*float64(c1.BloomMisses)/float64(probes))
	}
	r.logf("  %-5s post-wave: %d scan pages, %d lookup pages, bloom skip %s",
		kind, scanPages, lookupPages, skip)

	return []any{kind, sel.Counters.DiskReads, sel.Elapsed.Seconds(),
		wrote, bcWaves.Compactions, scanPages, lookupPages, skip}, nil
}

// backendCountersDelta subtracts two backend-counter snapshots.
func backendCountersDelta(before, after index.BackendCounters) index.BackendCounters {
	return index.BackendCounters{
		BloomHits:    after.BloomHits - before.BloomHits,
		BloomMisses:  after.BloomMisses - before.BloomMisses,
		SSTablesRead: after.SSTablesRead - before.SSTablesRead,
		Compactions:  after.Compactions - before.Compactions,
		PagesWritten: after.PagesWritten - before.PagesWritten,
	}
}
