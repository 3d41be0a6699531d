// Package treebench is a reproduction, as a library, of "Benchmarking
// Queries over Trees: Learning the Hard Truth the Hard Way" (Wattez, Cluet,
// Benzaken, Ferran, Fiegel — SIGMOD 2000).
//
// It contains a complete O2-like object database engine built for the
// purpose — slotted-page storage with physical Rids, a two-level
// client/server page cache, an ODMG-style object layer with the paper's
// 60-byte Handles, B+-tree indexes over arbitrary collections, transactions
// with a transaction-off loading mode, an OQL subset with heuristic and
// cost-based optimizers — plus the paper's Derby databases under its three
// physical organizations, the four §5.1 tree-query algorithms (and the
// hybrid-hash extension the paper calls for), the §4.2 selection access
// paths, the Figure 3 benchmark-results database, and a benchmark harness
// that regenerates every table and figure of the evaluation.
//
// Time is simulated: a calibrated cost model (10 ms page reads, the §4.3
// handle-management residue, swap penalties for over-budget hash tables)
// stands in for the paper's Sparc 20, so every reported number is
// deterministic and reproducible. See DESIGN.md for the substitution table
// and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	data, err := treebench.GenerateDerby(
//		treebench.DerbyConfig(200, 1000, treebench.ClassCluster))
//	...
//	planner := treebench.NewPlanner(data.DB, treebench.CostBased)
//	data.DB.ColdRestart()
//	res, err := planner.Query(`select p.name, pa.age
//		from p in Providers, pa in p.clients
//		where pa.mrn < 20001 and p.upin < 21`)
//
// The experiment harness reproduces the paper:
//
//	runner, err := treebench.NewRunner(treebench.RunnerConfigFromEnv())
//	table, err := runner.Run("F12")
//	fmt.Print(table)
package treebench

import (
	"treebench/internal/core"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/join"
	"treebench/internal/object"
	"treebench/internal/oql"
	"treebench/internal/selection"
	"treebench/internal/sim"
	"treebench/internal/stats"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Engine types.
type (
	// Session is one execution context — caches, meter, handle table,
	// transaction state — over a database. Freeze a built Session into a
	// Snapshot, then fork cheap private Sessions from it for concurrent,
	// byte-identical query runs.
	Session = engine.Session
	// Database is the Session type's historical name.
	Database = engine.Database
	// Snapshot is the immutable, shareable half of a frozen database: the
	// page image plus the catalog. Snapshot.Fork returns a read-only
	// Session in O(catalog); Snapshot.ForkMutable adds a private
	// copy-on-write overlay for updates.
	Snapshot = engine.Snapshot
	// Extent is a named collection of all objects of one class.
	Extent = engine.Extent
	// Index is a B+-tree index over an integer attribute of an extent.
	Index = engine.Index
	// Class describes an object type.
	Class = object.Class
	// Attr is one attribute of a class.
	Attr = object.Attr
	// Value is one attribute value.
	Value = object.Value
	// Machine is the simulated hardware's memory geography.
	Machine = sim.Machine
	// CostModel holds the simulated operation costs.
	CostModel = sim.CostModel
	// Meter tracks simulated time and the Figure 3 counters.
	Meter = sim.Meter
	// Counters aggregates the per-session event counts.
	Counters = sim.Counters
	// Rid is a physical record identifier.
	Rid = storage.Rid
	// Relationship is a declared 1-n inverse relationship whose two sides
	// the engine maintains together.
	Relationship = engine.Relationship
)

// NilRid is the nil object reference.
var NilRid = storage.NilRid

// Attribute kinds for class definitions.
const (
	KindInt    = object.KindInt
	KindChar   = object.KindChar
	KindString = object.KindString
	KindRef    = object.KindRef
	KindSet    = object.KindSet
)

// Transaction modes.
const (
	// Standard maintains a log and locks.
	Standard = txn.Standard
	// NoTransaction is the §3.2 bulk-loading mode.
	NoTransaction = txn.NoTransaction
)

// New creates an empty database on the given simulated machine. Most
// callers want DefaultMachine and DefaultCostModel.
func New(machine Machine, model CostModel, mode txn.Mode) *Database {
	return engine.New(machine, model, mode)
}

// NewClass builds a class from its attributes.
func NewClass(name string, attrs []Attr) *Class { return object.NewClass(name, attrs) }

// NewSubclass derives a class from parent with extra attributes appended;
// extents of the parent accept instances of the subclass.
func NewSubclass(name string, parent *Class, own []Attr) (*Class, error) {
	return object.NewSubclass(name, parent, own)
}

// RefIndexKey maps an object reference to the key a reference-keyed index
// stores it under.
func RefIndexKey(r Rid) int64 { return engine.RefKey(r) }

// IntValue returns an integer attribute value.
func IntValue(v int64) Value { return object.IntValue(v) }

// StringValue returns a string attribute value.
func StringValue(s string) Value { return object.StringValue(s) }

// RefValue returns an object-reference attribute value.
func RefValue(r Rid) Value { return object.RefValue(r) }

// SetValue returns a collection-reference attribute value.
func SetValue(r Rid) Value { return object.SetValue(r) }

// DefaultMachine returns the paper's tuned Sparc 20 configuration: 128 MB
// RAM, 4 MB server cache, 32 MB client cache.
func DefaultMachine() Machine { return sim.DefaultMachine() }

// DefaultCostModel returns the calibrated cost model (see internal/sim for
// the calibration anchors).
func DefaultCostModel() CostModel { return sim.DefaultCostModel() }

// Derby databases (§2).
type (
	// Dataset is a generated Derby database.
	Dataset = derby.Dataset
	// Clustering selects a Figure 2 physical organization.
	Clustering = derby.Clustering
	// GenConfig parameterizes database generation.
	GenConfig = derby.Config
)

// The three physical organizations of Figure 2.
const (
	ClassCluster       = derby.ClassCluster
	RandomOrg          = derby.RandomOrg
	CompositionCluster = derby.CompositionCluster
)

// DerbyConfig returns the tuned generation configuration for a database of
// providers × avgPatients under the given clustering.
func DerbyConfig(providers, avgPatients int, clustering Clustering) GenConfig {
	return derby.DefaultConfig(providers, avgPatients, clustering)
}

// GenerateDerby builds a Derby database deterministically.
func GenerateDerby(cfg GenConfig) (*Dataset, error) { return derby.Generate(cfg) }

// Query processing.
type (
	// Planner parses, optimizes and executes OQL.
	Planner = oql.Planner
	// Plan is an optimized query plan with its costed alternatives.
	Plan = oql.Plan
	// QueryResult is an executed query's outcome.
	QueryResult = oql.Result
	// JoinEnv describes a 1-n hierarchy for the tree-query algorithms.
	JoinEnv = join.Env
	// JoinResult reports one algorithm run.
	JoinResult = join.Result
	// Algorithm names a §5.1 evaluation strategy.
	Algorithm = join.Algorithm
	// Access names a §4.2 selection access path.
	Access = selection.Access
)

// Optimizer strategies.
const (
	// Heuristic caricatures the legacy O2 optimizer.
	Heuristic = oql.Heuristic
	// CostBased uses the calibrated cost model.
	CostBased = oql.CostBased
)

// The §5.1 algorithms plus the extensions: the hybrid-hash join the paper
// calls for, the sort-merge join it dropped, and the value-based join it
// builds on.
const (
	NL      = join.NL
	NOJOIN  = join.NOJOIN
	PHJ     = join.PHJ
	CHJ     = join.CHJ
	HHJ     = join.HHJ
	SMJ     = join.SMJ
	VNOJOIN = join.VNOJOIN
)

// The §4.2 selection access paths.
const (
	FullScan        = selection.FullScan
	IndexScan       = selection.IndexScan
	SortedIndexScan = selection.SortedIndexScan
)

// NewPlanner returns an OQL planner over db with the given strategy.
func NewPlanner(db *Database, strategy oql.Strategy) *Planner {
	return &Planner{DB: db, Strategy: strategy}
}

// ParseOQL parses OQL text without planning it.
func ParseOQL(src string) (*oql.Query, error) { return oql.Parse(src) }

// DerbyJoinEnv wires a Derby dataset into the §5 tree-query environment.
func DerbyJoinEnv(d *Dataset) *JoinEnv { return join.EnvForDerby(d) }

// RunJoin evaluates the tree query with one algorithm on a cold system.
func RunJoin(env *JoinEnv, algo Algorithm, q join.Query) (*JoinResult, error) {
	return join.Run(env, algo, q)
}

// Benchmark harness.
type (
	// Runner executes the paper's experiments.
	Runner = core.Runner
	// RunnerConfig parameterizes a benchmark session.
	RunnerConfig = core.Config
	// ResultTable is one reproduced table/figure.
	ResultTable = core.Table
	// StatsDB is the Figure 3 benchmark-results database.
	StatsDB = stats.DB
	// StatEntry is one recorded measurement.
	StatEntry = stats.Entry
)

// NewRunner returns an experiment runner (databases are generated lazily
// and cached across experiments). The runner is safe for concurrent use;
// Runner.RunMany and Runner.RunAll schedule independent experiments onto
// RunnerConfig.Jobs workers, with byte-identical output at any worker
// count (elapsed time is simulated, never wall clock).
func NewRunner(cfg RunnerConfig) (*Runner, error) { return core.NewRunner(cfg) }

// RunnerConfigFromEnv builds the default runner configuration, honoring
// TREEBENCH_SF and TREEBENCH_SNAPSHOT_DIR.
func RunnerConfigFromEnv() RunnerConfig { return core.ConfigFromEnv() }

// DefaultJobs is the default experiment scheduler width: min(NumCPU, 8).
func DefaultJobs() int { return core.DefaultJobs() }

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return core.ExperimentIDs() }

// ExperimentInfo describes one runnable experiment.
type ExperimentInfo = core.ExperimentInfo

// ExperimentList returns every experiment with its title, in presentation
// order.
func ExperimentList() []ExperimentInfo { return core.Experiments() }

// OpenStats creates an empty Figure 3 results database on a fresh engine.
func OpenStats() (*StatsDB, error) { return stats.Open() }
