package treebench

// The benchmark harness: one testing.B benchmark per reproduced table and
// figure of the paper. Each benchmark regenerates its table against the
// simulated engine and prints it once, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation section. The default scale factor is 10
// (databases and memory 1/10 of the paper's, every ratio preserved); set
// TREEBENCH_SF=1 for full paper scale. Simulated seconds per experiment are
// reported as the custom metric sim-s.
//
// Databases and cold join runs are cached across benchmarks (Figure 15
// reuses the Figure 11–14 runs), so run the benchmarks in one process.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"
)

var benchVerbose = flag.Bool("bench.verbose", false, "stream per-run progress during benchmarks")

var (
	benchRunnerOnce sync.Once
	benchRunner     *Runner
	benchRunnerErr  error

	printedMu sync.Mutex
	printed   = map[string]bool{}
)

func sharedRunner() (*Runner, error) {
	benchRunnerOnce.Do(func() {
		cfg := RunnerConfigFromEnv()
		if *benchVerbose {
			cfg.Verbose = os.Stderr
		}
		benchRunner, benchRunnerErr = NewRunner(cfg)
	})
	return benchRunner, benchRunnerErr
}

// benchExperiment times one experiment's regeneration (ns/op is its wall
// time) and prints its table, which carries the simulated numbers, once.
func benchExperiment(b *testing.B, id string) {
	r, err := sharedRunner()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var table *ResultTable
	for i := 0; i < b.N; i++ {
		table, err = r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	printedMu.Lock()
	if !printed[id] {
		printed[id] = true
		fmt.Println()
		table.Format(os.Stdout)
	}
	printedMu.Unlock()
}

// BenchmarkFig6Selection regenerates the §4.2 selection experiment:
// unclustered index vs no index across selectivities.
func BenchmarkFig6Selection(b *testing.B) { benchExperiment(b, "F6") }

// BenchmarkFig7SortedIndexScan regenerates Figure 7: sorted unclustered
// index vs no index.
func BenchmarkFig7SortedIndexScan(b *testing.B) { benchExperiment(b, "F7") }

// BenchmarkFig9CostBreakdown regenerates Figure 9: the standard-scan vs
// sorted-index-scan cost decomposition.
func BenchmarkFig9CostBreakdown(b *testing.B) { benchExperiment(b, "F9") }

// BenchmarkFig10HashTableSizes regenerates Figure 10: hash-table sizes.
func BenchmarkFig10HashTableSizes(b *testing.B) { benchExperiment(b, "F10") }

// BenchmarkFig11ClassCluster1to1000 regenerates Figure 11.
func BenchmarkFig11ClassCluster1to1000(b *testing.B) { benchExperiment(b, "F11") }

// BenchmarkFig12ClassCluster1to3 regenerates Figure 12.
func BenchmarkFig12ClassCluster1to3(b *testing.B) { benchExperiment(b, "F12") }

// BenchmarkFig13CompCluster1to1000 regenerates Figure 13.
func BenchmarkFig13CompCluster1to1000(b *testing.B) { benchExperiment(b, "F13") }

// BenchmarkFig14CompCluster1to3 regenerates Figure 14.
func BenchmarkFig14CompCluster1to3(b *testing.B) { benchExperiment(b, "F14") }

// BenchmarkFig15Summary regenerates Figure 15: winning algorithms across
// the three physical organizations (adds the random-organization runs).
func BenchmarkFig15Summary(b *testing.B) { benchExperiment(b, "F15") }

// BenchmarkLoadingAblations regenerates the §3.2 loading experiments.
func BenchmarkLoadingAblations(b *testing.B) { benchExperiment(b, "L1") }

// BenchmarkHandleAblations regenerates the §4.4 handle-management proposal
// as a measured fat-vs-slim ablation.
func BenchmarkHandleAblations(b *testing.B) { benchExperiment(b, "H1") }

// BenchmarkSortJoinAblation measures the sort-merge pointer join the paper
// tried and dropped against the best hash join.
func BenchmarkSortJoinAblation(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkOptimizerAccuracy scores the cost-based and heuristic optimizer
// strategies against the measured winners — the paper's original goal.
func BenchmarkOptimizerAccuracy(b *testing.B) { benchExperiment(b, "O1") }

// BenchmarkDoctorRetires measures §4.4's header-driven index maintenance.
func BenchmarkDoctorRetires(b *testing.B) { benchExperiment(b, "D1") }

// BenchmarkPrefetch measures scan-driven read-ahead (RPC batching).
func BenchmarkPrefetch(b *testing.B) { benchExperiment(b, "P1") }

// BenchmarkRidsOrHandles measures §4.1's hash-table entry choice.
func BenchmarkRidsOrHandles(b *testing.B) { benchExperiment(b, "R1") }

// BenchmarkClusteredIndex contrasts clustered and unclustered index
// selections.
func BenchmarkClusteredIndex(b *testing.B) { benchExperiment(b, "S1") }

// BenchmarkWarmCold contrasts the paper's cold methodology with warm
// reruns.
func BenchmarkWarmCold(b *testing.B) { benchExperiment(b, "W1") }

// BenchmarkPointerVsValue contrasts pointer-based navigation with
// value-based foreign-key resolution ([14]).
func BenchmarkPointerVsValue(b *testing.B) { benchExperiment(b, "V1") }

// BenchmarkMeasureElapsed validates §3.5: elapsed time tracks I/Os except
// where there is "a good reason".
func BenchmarkMeasureElapsed(b *testing.B) { benchExperiment(b, "M1") }

// runAllSeqSecs is the sequential baseline's per-op wall time, captured by
// BenchmarkRunAllSequential so BenchmarkRunAllParallel (registered after
// it) can report the wall-clock speedup as a custom metric.
var runAllSeqSecs float64

// benchRunAll measures a complete RunAll — every experiment, fresh runner
// per iteration so no caches carry over — at the given worker count, and
// returns the per-op wall seconds.
func benchRunAll(b *testing.B, jobs int) float64 {
	cfg := RunnerConfigFromEnv()
	cfg.Jobs = jobs
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start).Seconds() / float64(b.N)
	b.ReportMetric(wall, "wall-s/op")
	return wall
}

// BenchmarkRunAllSequential is the full evaluation on one worker — the
// pre-scheduler behavior, and the baseline for the speedup metric.
func BenchmarkRunAllSequential(b *testing.B) { runAllSeqSecs = benchRunAll(b, 1) }

// BenchmarkRunAllParallel is the full evaluation under the parallel
// scheduler. When run together with BenchmarkRunAllSequential (any -bench
// pattern matching both), it reports the wall-clock speedup as the custom
// metric "speedup"; the tables themselves are byte-identical by
// construction (simulated time).
func BenchmarkRunAllParallel(b *testing.B) {
	jobs := DefaultJobs()
	if jobs < 4 {
		jobs = 4 // keep the schedule parallel even on small CI machines
	}
	wall := benchRunAll(b, jobs)
	if runAllSeqSecs > 0 && wall > 0 {
		b.ReportMetric(runAllSeqSecs/wall, "speedup")
	}
}
