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
//	oqlsh -coord ADDR -e '...' # run remotely against a treebenchd or
//	                           # treebench-coord instead of in-process
//
// In -e/-f mode only query output reaches stdout (progress goes to
// stderr), the first failing statement stops the run, and the exit status
// is non-zero on error — so shell output can be diffed against a
// treebenchd server session in CI.
//
// With -coord the statements are sent, in order, over one connection
// instead of executed in-process: results render through the same
// renderer, so a daemon's or a cluster's output diffs byte-for-byte
// against the local shell (that equivalence is what the server, snap, wal
// and dist smokes pin), and -warm exercises the remote session's
// warm-cache discipline. The dial retries while the daemon is still
// generating, and every request has an I/O deadline. -coord requires -e
// or -f. The shell only generates databases in process, so it never reads
// a page through the buffer pool and has no -bufpool-mb.
//
// Shell commands:
//
//	select ... ;         run an OQL query (newlines allowed, end with ';')
//	.explain select ...  plan a query without running it
//	.cold                cold-restart the caches (default before each query)
//	.warm                keep caches warm between queries
//	.schema              show extents, attributes and indexes
//	.stats               show index histograms
//	.strategy cost|heur  switch optimizer strategy
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
		coord      = flag.String("coord", "", "run statements remotely against this treebenchd (or treebench-coord) address; requires -e or -f")
		maxRows    = flag.Int("maxrows", 10, "sample rows printed per query in -coord mode")
		exec       = cli.ExecFlags(flag.CommandLine)
	)
	flag.Parse()
	scripted := *stmts != "" || *script != ""

	if *coord != "" {
		if !scripted {
			fmt.Fprintln(os.Stderr, "oqlsh: -coord requires -e or -f (no interactive remote mode)")
			os.Exit(2)
		}
		if err := runRemote(*coord, *stmts, *script, *strategy, *warm, *maxRows); err != nil {
			fmt.Fprintln(os.Stderr, "oqlsh:", err)
			os.Exit(1)
		}
		return
	}

	cl, err := derby.ParseClustering(*clustering)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oqlsh:", err)
		os.Exit(2)
	}
	qj, kind, err := exec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "oqlsh:", err)
		os.Exit(2)
	}

	// Progress stays off stdout in scripted mode so stdout is exactly the
	// query output.
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
		fmt.Fprintln(os.Stderr, "oqlsh:", err)
		os.Exit(1)
	}
	sh := shell.NewWith(d.DB, session.Config{
		QueryJobs:    qj,
		PlanCache:    oql.NewPlanCache(0),
		IndexBackend: kind,
	})
	if strings.HasPrefix(*strategy, "heur") {
		sh.Planner.Strategy = oql.Heuristic
	}
	if *warm {
		sh.Cold = false
	}

	if scripted {
		sh.Prompt = ""
		if *stmts != "" {
			src := *stmts
			if !strings.HasSuffix(strings.TrimSpace(src), ";") {
				src += ";"
			}
			if err := sh.Script(strings.NewReader(src), os.Stdout); err != nil {
				os.Exit(1)
			}
		}
		if *script != "" {
			f, err := os.Open(*script)
			if err != nil {
				fmt.Fprintln(os.Stderr, "oqlsh:", err)
				os.Exit(1)
			}
			err = sh.Script(f, os.Stdout)
			f.Close()
			if err != nil {
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println(`ready; try: select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10;`)
	fmt.Println(`type .help for commands`)
	if err := sh.Run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oqlsh:", err)
		os.Exit(1)
	}
}

// runRemote sends the scripted statements to a coordinator (or daemon) and
// renders each result exactly as the local shell would.
func runRemote(addr, inline, script, strategy string, warm bool, maxRows int) error {
	text := inline
	if script != "" {
		b, err := os.ReadFile(script)
		if err != nil {
			return err
		}
		if text != "" {
			text += ";"
		}
		text += string(b)
	}
	var stmtList []string
	for _, s := range strings.Split(text, ";") {
		if s = strings.TrimSpace(s); s != "" {
			stmtList = append(stmtList, s)
		}
	}
	if len(stmtList) == 0 {
		return fmt.Errorf("no statements to run")
	}
	c, err := client.Dial(addr, client.Options{RetryAttempts: 20, IOTimeout: 60 * time.Second})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(os.Stderr, "connected to %s (db %s)\n", addr, c.Label())
	opts := client.QueryOptions{
		Warm:      warm,
		Heuristic: strings.HasPrefix(strategy, "heur"),
		MaxRows:   maxRows,
	}
	for _, stmt := range stmtList {
		res, err := c.Query(stmt, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
		session.WriteResult(os.Stdout, res, maxRows)
	}
	return nil
}
