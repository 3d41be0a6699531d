// Command oqlsh is an interactive OQL shell over a generated Derby
// database. Queries run against the simulated engine; each result is
// reported with its plan, the considered alternatives, sample rows,
// simulated elapsed time, and the Figure 3 counters.
//
// Usage:
//
//	oqlsh [-providers 200] [-avg 50] [-clustering class] [-strategy cost]
//	      [-qj N] [-index-backend btree|disk|lsm]
//	oqlsh -e 'select ... ;'   # non-interactive: run statements, then exit
//	oqlsh -f script.oql       # non-interactive: run a script file
//	oqlsh -warm -e '...'      # keep caches warm between statements
//	oqlsh -coord ADDR -e '...' # run remotely against a treebenchd
//	                           # instead of in-process
//
// In -e/-f mode only query output reaches stdout (progress goes to
// stderr), the first failing statement stops the run, and the exit status
// is non-zero on error — so shell output can be diffed against a
// treebenchd server session in CI.
//
// With -coord the statements are sent, in order, over one connection
// instead of executed in-process: results render through the same
// renderer, so a daemon's output diffs byte-for-byte against the local
// shell (that equivalence is what the server, snap and wal smokes pin),
// and -warm exercises the remote session's warm-cache discipline. The
// dial retries while the daemon is still generating, and every request
// has an I/O deadline. -coord requires -e or -f. Concurrent clients are several oqlsh -coord processes; closed-loop
// throughput and latency are the bench/ module's job. The shell only
// generates databases in process, so it never reads a page through the
// buffer pool and has no -bufpool-mb.
//
// Shell commands:
//
//	select ... ;         run an OQL query (newlines allowed; ';' ends it,
//	                     so one line may hold several)
//	.explain select ...  plan a query without running it
//	.cold                cold-restart the caches (default before each query)
//	.warm                keep caches warm between queries
//	.schema              show extents, attributes and indexes
//	.stats               show index histograms
//	.strategy cost|heur  switch optimizer strategy
//	.commit              -coord: commit the daemon's next update wave
//	.server              -coord: print the daemon's counters
//	.help                this text
//	.quit                exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"treebench"
	"treebench/internal/cli"
	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/oql"
	"treebench/internal/session"
	"treebench/internal/shell"
)

func main() {
	var (
		providers  = flag.Int("providers", 200, "number of providers")
		avg        = flag.Int("avg", 50, "average patients per provider")
		clustering = flag.String("clustering", "class", "class, random, composition")
		strategy   = flag.String("strategy", "cost", "optimizer strategy: cost, heuristic")
		stmts      = flag.String("e", "", "run these semicolon-terminated statements and exit")
		script     = flag.String("f", "", "run this script file and exit")
		warm       = flag.Bool("warm", false, "keep caches warm between statements (like the .warm command)")
		coord      = flag.String("coord", "", "run statements remotely against this treebenchd address; requires -e or -f")
		maxRows    = flag.Int("maxrows", 10, "sample rows printed per query in -coord mode")
		exec       = cli.ExecFlags(flag.CommandLine)
	)
	flag.Parse()
	scripted := *stmts != "" || *script != ""

	var sh *shell.Shell
	if *coord != "" {
		if !scripted {
			fatal(2, fmt.Errorf("-coord requires -e or -f (no interactive remote mode)"))
		}
		c, err := client.Dial(*coord, client.Options{RetryAttempts: 20, IOTimeout: 60 * time.Second})
		if err != nil {
			fatal(1, err)
		}
		defer c.Close()
		fmt.Fprintf(os.Stderr, "connected to %s (db %s)\n", *coord, c.Label())
		sh = shell.NewRemote(c)
		sh.MaxRows = *maxRows
	} else {
		cl, err := derby.ParseClustering(*clustering)
		if err != nil {
			fatal(2, err)
		}
		qj, kind, err := exec.Resolve()
		if err != nil {
			fatal(2, err)
		}
		// Progress stays off stdout in scripted mode so stdout is exactly
		// the query output.
		progress := io.Writer(os.Stdout)
		if scripted {
			progress = os.Stderr
		}
		fmt.Fprintf(progress, "generating %d providers × %d patients (%s clustering)...\n",
			*providers, (*providers)*(*avg), cl)
		dcfg := treebench.DerbyConfig(*providers, *avg, cl)
		dcfg.IndexBackend = kind
		d, err := treebench.GenerateDerby(dcfg)
		if err != nil {
			fatal(1, err)
		}
		sh = shell.NewWith(d.DB, session.Config{
			QueryJobs:    qj,
			PlanCache:    oql.NewPlanCache(0),
			IndexBackend: kind,
		})
	}
	// -strategy and -warm are the shell's first dot-commands.
	sh.Command(".strategy "+*strategy, io.Discard)
	if *warm {
		sh.Command(".warm", io.Discard)
	}

	if scripted {
		sh.Prompt = ""
		err := sh.Script(strings.NewReader(*stmts), os.Stdout)
		if err == nil && *script != "" {
			var f *os.File
			if f, err = os.Open(*script); err == nil {
				err = sh.Script(f, os.Stdout)
				f.Close()
			}
		}
		if err != nil {
			fatal(1, err)
		}
		return
	}

	fmt.Println(`ready; try: select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10;`)
	fmt.Println(`type .help for commands`)
	if err := sh.Run(os.Stdin, os.Stdout); err != nil {
		fatal(1, err)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "oqlsh:", err)
	os.Exit(code)
}
