// Package core is the benchmark itself: the paper's primary contribution
// reproduced as runnable experiments. Each experiment regenerates one table
// or figure of the paper (see DESIGN.md's per-experiment index) against the
// simulated O2-like engine, at a configurable scale factor.
package core

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"treebench/internal/backend"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/join"
	"treebench/internal/persist"
	"treebench/internal/sim"
	"treebench/internal/stats"
)

// Config parameterizes a benchmark session.
type Config struct {
	// SF divides the paper's database cardinalities and the machine's
	// memory sizes, preserving every data-to-memory ratio. SF=1 is the
	// paper's full scale (2,000×1,000 and 1,000,000×3); the default 10
	// runs the same shapes in about a tenth of the wall-clock time.
	SF int
	// Seed drives the deterministic data generator.
	Seed int32
	// EnableHHJ adds the hybrid-hash extension as an extra column in the
	// join experiments.
	EnableHHJ bool
	// Jobs bounds how many experiments the scheduler runs concurrently.
	// Zero means DefaultJobs(); elapsed time is simulated per dataset, so
	// results are bit-identical at any setting.
	Jobs int
	// QueryJobs bounds how many goroutines serve one query's chunks
	// (intra-query parallelism). Zero means the engine default,
	// min(NumCPU, 4). Under the parallel scheduler the effective width is
	// divided by the scheduler's worker count so the two levels compose to
	// roughly Jobs×QueryJobs goroutines, never Jobs·QueryJobs each.
	// Simulated numbers are identical at any setting.
	QueryJobs int
	// IndexBackend selects the pluggable index structure ("btree" or
	// "lsm"; empty means the B+-tree default). It changes
	// physical layout and page-granular cost accounting, never query
	// results — the B1 ablation quantifies the difference.
	IndexBackend string
	// SnapshotDir, when non-empty, backs dataset generation with the
	// content-addressed snapshot cache at that directory: each distinct
	// parameter set is generated at most once ever, then loaded. Results
	// are bit-identical either way (snapshots are cached unprimed,
	// straight after Freeze). Empty disables on-disk caching; generation
	// is still singleflighted in-process.
	SnapshotDir string
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

// DefaultSF is the default scale divisor.
const DefaultSF = 10

// ScaleEnvVar overrides the scale factor (TREEBENCH_SF=1 reproduces paper
// scale).
const ScaleEnvVar = "TREEBENCH_SF"

// DefaultJobs is the default scheduler width: one worker per CPU, capped
// at 8 (diminishing returns: experiments share one generation per database
// and fan out cheap session forks).
func DefaultJobs() int {
	if n := runtime.NumCPU(); n < 8 {
		return n
	}
	return 8
}

// ConfigFromEnv builds the default config, honoring ScaleEnvVar and
// persist.SnapshotDirEnvVar. A scale below 1 (or non-numeric) is rejected
// and the default kept.
func ConfigFromEnv() Config {
	cfg := Config{
		SF:          DefaultSF,
		Seed:        1997,
		Jobs:        DefaultJobs(),
		SnapshotDir: os.Getenv(persist.SnapshotDirEnvVar),
	}
	if v := os.Getenv(ScaleEnvVar); v != "" {
		if sf, err := strconv.Atoi(v); err == nil && sf >= 1 {
			cfg.SF = sf
		}
	}
	return cfg
}

// jobs resolves the configured worker count.
func (c Config) jobs() int {
	if c.Jobs >= 1 {
		return c.Jobs
	}
	return DefaultJobs()
}

// MachineForSF scales the paper's Sparc 20 memory geography down with the
// data, so cache-to-data and budget-to-table ratios match the paper's at
// any scale factor.
func MachineForSF(sf int) sim.Machine {
	m := sim.DefaultMachine()
	m.RAM /= int64(sf)
	m.ServerCache /= int64(sf)
	m.ClientCache /= int64(sf)
	m.HashBudget /= int64(sf)
	return m
}

// Table is one reproduced paper table/figure.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table with aligned columns.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

// dsKey identifies a generated database, index backend included: the B1
// ablation holds several backends' datasets in one Runner.
type dsKey struct {
	providers int
	avg       int
	cl        derby.Clustering
	backend   string // normalized kind, "btree" when unset
}

// dsKeyFor builds a dataset key under the runner's configured backend.
func (r *Runner) dsKeyFor(providers, avg int, cl derby.Clustering) dsKey {
	return dsKey{providers: providers, avg: avg, cl: cl,
		backend: backend.Normalize(r.Config.IndexBackend)}
}

// joinKey identifies one cold join run for cross-experiment reuse
// (Figure 15 re-reports Figure 11–14 numbers).
type joinKey struct {
	ds   dsKey
	sel  [2]int // patients, providers
	algo join.Algorithm
}

// runnerState is the cross-experiment shared state, split out so the
// scheduler can hand each experiment a shallow per-experiment Runner view
// (for log prefixes) over the same caches. Both caches are Flights:
// generation and each distinct cold join run happen exactly once however
// many experiments need them, with no run locks — every experiment works
// on its own session forked from the shared frozen snapshot.
type runnerState struct {
	logMu sync.Mutex

	snapshots Flight[dsKey, *derby.Snapshot]
	joinRuns  Flight[joinKey, *join.Result]

	// cache is the on-disk snapshot store, opened once on first use when
	// Config.SnapshotDir is set (nil otherwise).
	cacheOnce sync.Once
	cache     *persist.Cache
	cacheErr  error
}

// Runner executes experiments, caching generated databases and join runs.
// A Runner is safe for concurrent use: the parallel scheduler (RunMany)
// runs independent experiments on separate goroutines.
type Runner struct {
	Config Config
	// Stats records every measured run in the §3.3 results database.
	Stats *stats.DB

	// expID prefixes verbose log lines when the scheduler interleaves
	// several experiments' output ("" outside the scheduler).
	expID string
	// jobsInUse is how many scheduler workers run concurrently with this
	// view (0 or 1 outside RunMany). Intra-query parallelism divides by it
	// so the two levels compose instead of multiplying.
	jobsInUse int

	shared *runnerState
}

// NewRunner returns a runner with an empty cache and a fresh results DB.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.SF < 1 {
		return nil, fmt.Errorf("core: scale factor %d < 1", cfg.SF)
	}
	if cfg.Jobs < 0 {
		return nil, fmt.Errorf("core: jobs %d < 1", cfg.Jobs)
	}
	sdb, err := stats.Open()
	if err != nil {
		return nil, err
	}
	return &Runner{
		Config: cfg,
		Stats:  sdb,
		shared: &runnerState{},
	}, nil
}

// withExperiment returns a view of r that tags verbose output with the
// experiment id. The view shares r's caches, locks and stats.
func (r *Runner) withExperiment(id string) *Runner {
	view := *r
	view.expID = id
	return &view
}

// logf writes progress when verbose. Lines from concurrent experiments are
// serialized and carry the experiment-id prefix.
func (r *Runner) logf(format string, args ...any) {
	if r.Config.Verbose == nil {
		return
	}
	r.shared.logMu.Lock()
	defer r.shared.logMu.Unlock()
	if r.expID != "" {
		fmt.Fprintf(r.Config.Verbose, "[%s] "+format+"\n", append([]any{r.expID}, args...)...)
	} else {
		fmt.Fprintf(r.Config.Verbose, format+"\n", args...)
	}
}

// The paper's two databases, scaled.
func (r *Runner) smallScale() (providers, avg int) { return 2000 / r.Config.SF, 1000 }
func (r *Runner) bigScale() (providers, avg int)   { return 1_000_000 / r.Config.SF, 3 }

// bothScales lists the two database scales in the paper's order.
func (r *Runner) bothScales() [][2]int {
	p1, a1 := r.smallScale()
	p2, a2 := r.bigScale()
	return [][2]int{{p1, a1}, {p2, a2}}
}

// dbLabel names a database like the paper ("2x10^3 Providers").
func dbLabel(providers, avg int) string {
	return fmt.Sprintf("%dx%d", providers, avg)
}

// snapshot generates (or reuses) a frozen database snapshot. Generation is
// singleflight per key: under the parallel scheduler, experiments that
// need the same database share one generation while different databases
// generate concurrently. The result is immutable; every experiment works
// on a session forked from it.
func (r *Runner) snapshot(key dsKey) (*derby.Snapshot, error) {
	return r.shared.snapshots.Do(key, func() (*derby.Snapshot, error) {
		cfg := derby.DefaultConfig(key.providers, key.avg, key.cl)
		cfg.Seed = r.Config.Seed
		cfg.Machine = MachineForSF(r.Config.SF)
		cfg.IndexBackend = key.backend
		// The 1:3 databases never use the num index; skipping it matches the
		// paper's patient size there and halves generation time.
		cfg.SkipNumIndex = key.avg < 100
		if cache := r.snapshotCache(); cache != nil {
			sn, out, err := cache.GetOrGenerate(cfg)
			if err != nil {
				return nil, err
			}
			r.logf("%s database, %s clustering: %s (%s)",
				dbLabel(key.providers, key.avg), key.cl, out.Source, out.Path)
			return sn, nil
		}
		r.logf("generating %s database, %s clustering ...", dbLabel(key.providers, key.avg), key.cl)
		d, err := derby.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return d.Freeze()
	})
}

// snapshotCache lazily opens the on-disk cache named by
// Config.SnapshotDir. An open failure disables caching for the run (with
// one log line) rather than failing every experiment: the cache is an
// accelerator, not a correctness dependency.
func (r *Runner) snapshotCache() *persist.Cache {
	if r.Config.SnapshotDir == "" {
		return nil
	}
	s := r.shared
	s.cacheOnce.Do(func() {
		s.cache, s.cacheErr = persist.Open(r.Config.SnapshotDir)
		if s.cacheErr != nil {
			r.logf("snapshot cache disabled: %v", s.cacheErr)
		}
	})
	return s.cache
}

// dataset returns a fresh read-only session over the (singleflight-
// generated) database. Forks are cold and private — meter, caches and
// handle table belong to the caller alone — so experiments need no run
// locks and report exactly what a private copy would.
func (r *Runner) dataset(providers, avg int, cl derby.Clustering) (*derby.Dataset, error) {
	sn, err := r.snapshot(r.dsKeyFor(providers, avg, cl))
	if err != nil {
		return nil, err
	}
	d := sn.Fork()
	d.DB.SetQueryJobs(r.queryJobs())
	return d, nil
}

// queryJobs resolves the intra-query worker count for this runner view:
// the configured (or engine-default) width, divided by the number of
// scheduler workers running alongside so total goroutines stay near
// Jobs×queryJobs. Worker counts never touch chunk decomposition, so every
// reported number is identical at any resolution of this knob.
func (r *Runner) queryJobs() int {
	qj := r.Config.QueryJobs
	if qj < 1 {
		qj = engine.DefaultQueryJobs()
	}
	if r.jobsInUse > 1 {
		qj /= r.jobsInUse
	}
	if qj < 1 {
		qj = 1
	}
	return qj
}

// mutableDataset returns a fresh writable (copy-on-write) session over the
// shared snapshot, for experiments that update the database in place.
func (r *Runner) mutableDataset(providers, avg int, cl derby.Clustering) (*derby.Dataset, error) {
	sn, err := r.snapshot(r.dsKeyFor(providers, avg, cl))
	if err != nil {
		return nil, err
	}
	d := sn.ForkMutable()
	d.DB.SetQueryJobs(r.queryJobs())
	return d, nil
}

// withDataset runs fn over a fresh read-only fork of the database.
func (r *Runner) withDataset(providers, avg int, cl derby.Clustering, fn func(d *derby.Dataset) error) error {
	d, err := r.dataset(providers, avg, cl)
	if err != nil {
		return err
	}
	return fn(d)
}

// coldJoin runs one algorithm cold on the caller's session, memoized
// singleflight per (database, selectivities, algorithm) — Figure 15
// re-reports Figure 11–14 numbers without rerunning them, and concurrent
// experiments needing the same run share one execution. Cold runs on
// identical forks are deterministic, so whichever caller's session
// executes first produces the canonical result. The winning run is also
// recorded in the stats database, exactly once.
func (r *Runner) coldJoin(d *derby.Dataset, key dsKey, selPat, selProv int, algo join.Algorithm) (*join.Result, error) {
	jk := joinKey{ds: key, sel: [2]int{selPat, selProv}, algo: algo}
	return r.shared.joinRuns.Do(jk, func() (*join.Result, error) {
		env := join.EnvForDerby(d)
		q := env.BySelectivity(selPat, selProv)
		d.DB.ColdRestart()
		res, err := join.Run(env, algo, q)
		if err != nil {
			return nil, err
		}
		r.logf("  %-6s sel(pat=%d%%, prov=%d%%) %-11s t=%.2fs tuples=%d",
			d.Clustering, selPat, selProv, algo, res.Elapsed.Seconds(), res.Tuples)
		if r.Stats != nil {
			e := stats.Entry{
				Cold:            true,
				ProjectionType:  "attributes",
				Selectivity:     selPat,
				Text:            "select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < k1 and p.upin < k2",
				Database:        dbLabel(d.NumProviders, d.NumPatients/max(d.NumProviders, 1)),
				Cluster:         d.Clustering.String(),
				Algo:            string(algo),
				ServerCacheSize: d.DB.Machine.ServerCache,
				ClientCacheSize: d.DB.Machine.ClientCache,
				SameWorkstation: true,
			}
			e.FromCounters(res.Elapsed, res.Counters)
			if _, err := r.Stats.Record(e); err != nil {
				return nil, err
			}
		}
		return res, nil
	})
}
