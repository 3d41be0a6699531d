// Command treebench runs the paper's experiments and prints the reproduced
// tables.
//
// Usage:
//
//	treebench -list
//	treebench -run F12,F15 [-sf 10] [-j 4] [-v] [-hhj] [-csv results.csv] [-gnuplot plots/]
//	treebench -all [-sf 1] [-j 8]
//
// The scale factor divides the paper's database cardinalities and the
// machine's memory sizes (every ratio preserved); -sf 1 reproduces the full
// 2,000×1,000 and 1,000,000×3 databases. Every measured run is also
// recorded in the Figure 3 results database; -csv exports it.
//
// Independent experiments run concurrently on -j workers (default
// min(NumCPU, 8)). Elapsed time is simulated per database, so the tables
// are byte-identical at any -j; only the wall clock changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"treebench"
	"treebench/internal/cli"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		run     = flag.String("run", "", "comma-separated experiment ids to run")
		all     = flag.Bool("all", false, "run every experiment")
		sf      = flag.Int("sf", 0, "scale factor (default from TREEBENCH_SF or 10; 1 = paper scale)")
		jobs    = flag.Int("j", treebench.DefaultJobs(), "concurrent experiments, one per CPU up to 8 by default")
		exec    = cli.ExecFlags(flag.CommandLine)
		pool    = cli.PoolFlags(flag.CommandLine)
		seed    = flag.Int("seed", 1997, "data generator seed")
		verbose = flag.Bool("v", false, "stream per-run progress")
		hhj     = flag.Bool("hhj", false, "include the hybrid-hash extension in the join experiments")
		snapDir = cli.SnapshotDirFlag(flag.CommandLine)
		csvPath = flag.String("csv", "", "export the results database as CSV to this file")
		gnuplot = flag.String("gnuplot", "", "write <id>.dat and <id>.gp gnuplot files for each experiment into this directory")
	)
	flag.Parse()
	if err := pool.Setup(); err != nil {
		fatal(err)
	}

	if *list {
		fmt.Println("experiments:")
		for _, e := range treebench.ExperimentList() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := treebench.RunnerConfigFromEnv()
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *jobs < 1 {
		fatal(fmt.Errorf("-j %d: must be at least 1", *jobs))
	}
	cfg.Jobs = *jobs
	var err error
	if cfg.QueryJobs, cfg.IndexBackend, err = exec.Resolve(); err != nil {
		fatal(err)
	}
	cfg.Seed = int32(*seed)
	cfg.EnableHHJ = *hhj
	cfg.SnapshotDir = *snapDir
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	runner, err := treebench.NewRunner(cfg)
	if err != nil {
		fatal(err)
	}

	var ids []string
	switch {
	case *all:
		ids = treebench.ExperimentIDs()
	case *run != "":
		ids = strings.Split(*run, ",")
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("treebench: scale factor %d (databases %d×1000 and %d×3), seed %d\n\n",
		cfg.SF, 2000/cfg.SF, 1_000_000/cfg.SF, cfg.Seed)
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	// Tables are emitted in the requested order as experiments complete on
	// cfg.Jobs workers; simulated time keeps the output identical to a
	// sequential run.
	err = runner.RunMany(ids, cfg.Jobs, func(table *treebench.ResultTable) error {
		table.Format(os.Stdout)
		fmt.Println()
		if *gnuplot == "" {
			return nil
		}
		if err := os.MkdirAll(*gnuplot, 0o755); err != nil {
			return err
		}
		datName := table.ID + ".dat"
		if err := os.WriteFile(filepath.Join(*gnuplot, datName),
			[]byte(table.GnuplotData()), 0o644); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*gnuplot, table.ID+".gp"),
			[]byte(table.GnuplotScript(datName)), 0o644)
	})
	if err != nil {
		fatal(err)
	}
	if *gnuplot != "" {
		fmt.Printf("wrote gnuplot data and scripts to %s (render with: gnuplot %s/<id>.gp)\n", *gnuplot, *gnuplot)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := runner.Stats.ExportCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measured runs to %s\n", runner.Stats.Len(), *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "treebench:", err)
	os.Exit(1)
}
