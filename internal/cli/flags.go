// Package cli is the one place the flag groups shared by the cmd mains are
// declared: the Derby shape (-providers -avg -clustering -seed), the shared
// buffer pool (-bufpool-mb), the executor (-qj -index-backend) and the
// snapshot cache (-snapshot-dir). Each group registers on a FlagSet and
// resolves, after Parse, to the values the main runs with. Only
// -snapshot-dir reads an environment variable, for its default.
package cli

import (
	"flag"
	"fmt"
	"os"

	"treebench/internal/backend"
	"treebench/internal/bufpool"
	"treebench/internal/derby"
	"treebench/internal/persist"
)

// Shape is the Derby database a main generates, loads or serves.
type Shape struct {
	providers, avg, seed *int
	clustering           *string
}

// ShapeFlags registers -providers, -avg, -clustering and -seed on fs with
// the given scale defaults.
func ShapeFlags(fs *flag.FlagSet, providers, avg int) *Shape {
	return &Shape{
		providers:  fs.Int("providers", providers, "number of providers"),
		avg:        fs.Int("avg", avg, "average patients per provider"),
		clustering: fs.String("clustering", "class", "physical organization: class, random, composition"),
		seed:       fs.Int("seed", 1997, "data generator seed"),
	}
}

// Config returns the generator configuration the parsed flags describe.
func (s *Shape) Config() (derby.Config, error) {
	cl, err := derby.ParseClustering(*s.clustering)
	if err != nil {
		return derby.Config{}, err
	}
	cfg := derby.DefaultConfig(*s.providers, *s.avg, cl)
	cfg.Seed = int32(*s.seed)
	return cfg, nil
}

// Pool is the process-wide buffer pool's size. It changes real wall clock
// and real RSS only; results are identical at any setting. Readahead is
// bufpool.DefaultReadahead: no workload sets another value (DESIGN.md,
// "Options census").
type Pool struct {
	MB *int
}

// PoolFlags registers -bufpool-mb on fs.
func PoolFlags(fs *flag.FlagSet) Pool {
	return Pool{MB: fs.Int("bufpool-mb", bufpool.DefaultCapacityMB,
		"shared buffer pool size in MB, at least 1: every page of a loaded snapshot is read through it (results identical at any setting)")}
}

// Setup configures the shared pool from the parsed flag. Call it before
// anything loads a snapshot. There is no running without a pool, so a
// size below 1 MB is an error.
func (p Pool) Setup() error {
	if *p.MB < 1 {
		return fmt.Errorf("-bufpool-mb %d: must be at least 1", *p.MB)
	}
	bufpool.Setup(*p.MB, bufpool.DefaultReadahead)
	return nil
}

// SnapshotDirFlag registers -snapshot-dir on fs, defaulting to
// TREEBENCH_SNAPSHOT_DIR.
func SnapshotDirFlag(fs *flag.FlagSet) *string {
	return fs.String("snapshot-dir", os.Getenv(persist.SnapshotDirEnvVar),
		"snapshot cache directory: a generated database is saved there once and loaded on every later boot (also TREEBENCH_SNAPSHOT_DIR; empty disables)")
}

// BackendFlag registers -index-backend on fs; resolve it with Backend.
func BackendFlag(fs *flag.FlagSet) *string {
	return fs.String("index-backend", "",
		"index backend: btree or lsm (default btree; results identical across backends)")
}

// Backend checks a parsed -index-backend value: an unknown kind is an
// error that lists the valid ones, and "" means the default backend.
func Backend(kind string) (string, error) {
	if kind == "" {
		return "", nil
	}
	return kind, backend.CheckKind(kind)
}

// Exec is how queries execute: intra-query workers and index backend.
// Neither changes a reported number. The batch size is engine.DefaultBatch.
type Exec struct {
	qj      *int
	backend *string
}

// ExecFlags registers -qj and -index-backend on fs.
func ExecFlags(fs *flag.FlagSet) *Exec {
	return &Exec{
		qj: fs.Int("qj", 0,
			"intra-query workers (default min(NumCPU, 4); results identical at any setting)"),
		backend: BackendFlag(fs),
	}
}

// Resolve returns the parsed values; 0 and "" select the engine defaults.
func (e *Exec) Resolve() (qj int, kind string, err error) {
	if *e.qj < 0 {
		return 0, "", fmt.Errorf("-qj %d: must be at least 1", *e.qj)
	}
	kind, err = Backend(*e.backend)
	return *e.qj, kind, err
}
