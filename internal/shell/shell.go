// Package shell implements the OQL shell behind cmd/oqlsh: a line-oriented
// REPL over one database, with dot-commands for plans, cache temperature,
// schema inspection and optimizer strategy. It is a package (rather than
// living in main) so the full command surface is testable.
//
// Query execution and result rendering live in package session — the same
// entry point a treebenchd server session uses — so a statement typed here
// and the same statement sent over the wire print byte-identical results.
// A remote shell (NewRemote, oqlsh -coord) reads its input the same way and
// sends each statement to a treebenchd instead; it adds .commit and
// .server, the two requests only a daemon can answer.
package shell

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"

	"treebench/internal/client"
	"treebench/internal/engine"
	"treebench/internal/oql"
	"treebench/internal/session"
	"treebench/internal/wire"
)

// Shell is one REPL session. In local mode the embedded Session carries the
// database, planner and cache temperature; in remote mode it is nil, and the
// client connection and query options stand in for it. The Shell adds line
// handling, prompts and dot-commands.
type Shell struct {
	*session.Session
	remote *client.Client
	opts   client.QueryOptions
	// Prompt is printed before each input line; empty disables it (for
	// scripted use).
	Prompt string
	// MaxRows caps how many sample rows a query prints.
	MaxRows int
}

// NewWith returns a shell over db, cold and cost-based, with the given
// session configuration (intra-query worker count, plan cache).
func NewWith(db *engine.Database, cfg session.Config) *Shell {
	return &Shell{
		Session: session.NewWith(db, cfg),
		Prompt:  "oql> ",
		MaxRows: 10,
	}
}

// NewRemote returns a shell whose statements run on the treebenchd behind
// c, cold and cost-based until told otherwise.
func NewRemote(c *client.Client) *Shell {
	return &Shell{remote: c, Prompt: "oql> ", MaxRows: 10}
}

// Run reads statements from r until EOF or .quit, writing results to w.
// Input is split as splitter describes. Errors are reported inline and the
// loop continues — the interactive contract.
func (sh *Shell) Run(r io.Reader, w io.Writer) error {
	return sh.run(r, w, false)
}

// Script executes statements from r like Run but stops at the first query
// or command error and returns it — the non-interactive contract behind
// oqlsh -e/-f, where a failing statement must fail the run.
func (sh *Shell) Script(r io.Reader, w io.Writer) error {
	return sh.run(r, w, true)
}

func (sh *Shell) run(r io.Reader, w io.Writer, failFast bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var sp splitter
	for more := true; more; {
		if sh.Prompt != "" && sp.open.Len() == 0 {
			fmt.Fprint(w, sh.Prompt)
		}
		var items []string
		if more = sc.Scan(); more {
			items = sp.line(sc.Text())
		} else {
			items = sp.end(nil)
		}
		for _, it := range items {
			var quit bool
			var err error
			if strings.HasPrefix(it, ".") {
				quit, err = sh.Command(it, w)
			} else {
				err = sh.Query(it, w)
			}
			if quit {
				return nil
			}
			if err != nil && failFast {
				return err
			}
		}
	}
	return sc.Err()
}

// splitter cuts shell input, a line at a time, into items: statements and
// dot-commands. Every item ends at a ';' outside a quoted literal. An item
// that starts with '.' is a dot-command and also ends with its line; a
// statement may span lines and also ends at EOF. So one line may hold
// several items, and one statement several lines.
type splitter struct {
	open  strings.Builder // the item read so far
	quote byte            // the open literal's quote character, 0 outside one
}

// line returns the items that s completes.
func (sp *splitter) line(s string) (items []string) {
	for {
		cmd := false
		if sp.open.Len() == 0 {
			if s = strings.TrimSpace(s); s == "" {
				return items
			}
			cmd = s[0] == '.'
		}
		i := 0
		for ; i < len(s) && (sp.quote != 0 || s[i] != ';'); i++ {
			switch {
			case s[i] == sp.quote:
				sp.quote = 0
			case sp.quote == 0 && (s[i] == '"' || s[i] == '\''):
				sp.quote = s[i]
			}
		}
		sp.open.WriteString(s[:i])
		if i == len(s) && !cmd {
			sp.open.WriteByte('\n')
			return items
		}
		items = sp.end(items)
		if i == len(s) {
			return items
		}
		s = s[i+1:]
	}
}

// end closes the open item and appends it to items unless it is blank.
func (sp *splitter) end(items []string) []string {
	if text := strings.TrimSpace(sp.open.String()); text != "" {
		items = append(items, text)
	}
	sp.open.Reset()
	sp.quote = 0
	return items
}

// needsRemote marks the dot-commands one mode lacks: true for those only a
// daemon answers, false for those that read the local database.
var needsRemote = map[string]bool{".commit": true, ".server": true, ".schema": false, ".stats": false, ".explain": false}

// Command executes one dot-command, reporting whether the shell should
// quit. Errors are printed to w and also returned (Run ignores them,
// Script stops).
func (sh *Shell) Command(cmd string, w io.Writer) (quit bool, err error) {
	fields := strings.Fields(cmd)
	if remote, ok := needsRemote[fields[0]]; ok && remote != (sh.remote != nil) {
		need := "a local database, not -coord"
		if remote {
			need = "-coord"
		}
		return false, fail(w, fmt.Errorf("shell: %s needs %s", fields[0], need))
	}
	switch fields[0] {
	case ".quit", ".exit":
		return true, nil
	case ".cold", ".warm":
		warm := fields[0] == ".warm"
		if sh.remote != nil {
			sh.opts.Warm = warm
		} else {
			sh.Cold = !warm
		}
		if warm {
			fmt.Fprintln(w, "caches stay warm between queries")
		} else {
			fmt.Fprintln(w, "cold restart before each query")
		}
	case ".strategy":
		s := oql.CostBased
		if len(fields) == 2 && strings.HasPrefix(fields[1], "heur") {
			s = oql.Heuristic
		}
		if sh.remote != nil {
			sh.opts.Heuristic = s == oql.Heuristic
		} else {
			sh.Planner.Strategy = s
		}
		fmt.Fprintln(w, "strategy:", s)
	case ".schema":
		sh.schema(w)
	case ".stats":
		sh.stats(w)
	case ".explain":
		var q *oql.Query
		var plan *oql.Plan
		if q, err = oql.Parse(strings.TrimPrefix(cmd, ".explain")); err == nil {
			if plan, err = sh.Planner.Plan(q); err == nil {
				fmt.Fprintln(w, plan.Explain())
			}
		}
	case ".commit":
		var cr *wire.CommitResult
		if cr, err = sh.remote.Commit(); err == nil {
			fmt.Fprintf(w, "commit v%d wave %d: %d delta pages, wal at %d\n", cr.Version, cr.Wave, cr.DeltaPages, cr.WalOff)
		}
	case ".server":
		err = sh.server(w)
	case ".help":
		fmt.Fprintln(w, "commands: .explain <query>  .cold  .warm  .schema  .stats  .strategy cost|heuristic  .commit  .server  .quit")
	default:
		fmt.Fprintf(w, "unknown command %s (try .help)\n", fields[0])
		return false, fmt.Errorf("shell: unknown command %s", fields[0])
	}
	if err != nil {
		return false, fail(w, err)
	}
	return false, nil
}

// fail reports err inline and returns it.
func fail(w io.Writer, err error) error {
	fmt.Fprintln(w, "error:", err)
	return err
}

// server prints the daemon's counters, one "Name value" line per wire.Stats
// field in declaration order — the walk Stats.Encode makes, so a new
// counter prints without a change here.
func (sh *Shell) server(w io.Writer) error {
	st, err := sh.remote.Stats()
	if err != nil {
		return err
	}
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintln(w, v.Type().Field(i).Name, v.Field(i).Interface())
	}
	return nil
}

// schema prints extents, attributes and indexes.
func (sh *Shell) schema(w io.Writer) {
	for _, name := range sh.DB.Extents() {
		e, _ := sh.DB.Extent(name)
		fmt.Fprintf(w, "%s (class %s, %d objects, %d pages)\n",
			name, e.Class.Name, e.Count, e.File.NumPages())
		for _, a := range e.Class.Attrs {
			suffix := ""
			if ix := sh.DB.IndexOn(name, a.Name); ix != nil {
				suffix = "  [indexed"
				if ix.Clustered {
					suffix += ", clustered"
				}
				suffix += "]"
			}
			fmt.Fprintf(w, "  %-24s %v%s\n", a.Name, a.Kind, suffix)
		}
	}
}

// stats prints index statistics (histograms) for every indexed attribute.
func (sh *Shell) stats(w io.Writer) {
	for _, name := range sh.DB.Extents() {
		e, _ := sh.DB.Extent(name)
		for _, ix := range e.Indexes() {
			h, err := ix.Stats(sh.DB.Client)
			if err != nil || h == nil {
				fmt.Fprintf(w, "%s.%s: no statistics\n", name, ix.Attr)
				continue
			}
			fmt.Fprintf(w, "%s.%s: %d keys in [%d, %d], %d buckets\n",
				name, ix.Attr, h.Total(), h.Min(), h.Max(), h.Buckets())
		}
	}
}

// Query runs one OQL statement, here or on the daemon, and prints its plan,
// sample rows, aggregates and counters, returning the execution error if
// any.
func (sh *Shell) Query(src string, w io.Writer) error {
	res, err := sh.execute(src)
	if err != nil {
		return fail(w, err)
	}
	session.WriteResult(w, res, sh.MaxRows)
	return nil
}

func (sh *Shell) execute(src string) (*wire.Result, error) {
	if sh.remote != nil {
		opts := sh.opts
		opts.MaxRows = sh.MaxRows
		return sh.remote.Query(src, opts)
	}
	res, err := sh.ExecuteRows(context.Background(), src, sh.MaxRows)
	if err != nil {
		return nil, err
	}
	return session.ToWire(res, sh.MaxRows), nil
}
