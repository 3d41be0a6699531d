package shell

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/session"
)

func newShell(t *testing.T) *Shell {
	t.Helper()
	d, err := derby.Generate(derby.DefaultConfig(20, 20, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	sh := NewWith(d.DB, session.Config{})
	sh.Prompt = "" // scripted
	return sh
}

func run(t *testing.T, sh *Shell, script string) string {
	t.Helper()
	var out bytes.Buffer
	if err := sh.Run(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestShellQueryAndRows(t *testing.T) {
	sh := newShell(t)
	out := run(t, sh, "select pa.mrn, pa.age from pa in Patients where pa.mrn < 4;\n")
	for _, want := range []string{"selection on Patients", "3 rows in", "  1, "} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellMultilineAndSampleCap(t *testing.T) {
	sh := newShell(t)
	sh.MaxRows = 2
	out := run(t, sh, "select pa.mrn from pa in Patients\nwhere pa.mrn < 10\norder by pa.mrn desc;\n")
	if !strings.Contains(out, "... (7 more rows)") {
		t.Fatalf("row cap missing:\n%s", out)
	}
	if !strings.Contains(out, "  9\n  8\n") {
		t.Fatalf("descending rows missing:\n%s", out)
	}
}

func TestShellAggregates(t *testing.T) {
	sh := newShell(t)
	out := run(t, sh, "select sum(pa.mrn), avg(pa.mrn) from pa in Patients where pa.mrn < 5;\n")
	if !strings.Contains(out, "sum(mrn) = 10") || !strings.Contains(out, "avg(mrn) = 2.5") {
		t.Fatalf("aggregates missing:\n%s", out)
	}
}

func TestShellCommands(t *testing.T) {
	sh := newShell(t)
	out := run(t, sh, strings.Join([]string{
		".help",
		".schema",
		".stats",
		".warm",
		".strategy heuristic",
		".explain select pa.age from pa in Patients where pa.num > 100",
		".strategy cost",
		".cold",
		".bogus",
		".quit",
		"select count(*) from pa in Patients;", // never reached
	}, "\n")+"\n")
	for _, want := range []string{
		"commands: .explain",
		"Patients (class Patient",
		"[indexed, clustered]",
		"Patients.num:", "buckets",
		"caches stay warm",
		"strategy: heuristic",
		"selection on Patients via index where num > 100 [heuristic]",
		"strategy: cost-based",
		"cold restart",
		"unknown command .bogus",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rows in") {
		t.Fatalf("statement after .quit executed:\n%s", out)
	}
}

func TestShellErrorsAreReported(t *testing.T) {
	sh := newShell(t)
	out := run(t, sh, "select nothing;\n.explain select from x\n")
	if strings.Count(out, "error:") != 2 {
		t.Fatalf("errors not surfaced:\n%s", out)
	}
}

func TestShellWarmModeKeepsCaches(t *testing.T) {
	sh := newShell(t)
	out := run(t, sh, ".warm\nselect count(*) from pa in Patients;\nselect count(*) from pa in Patients;\n")
	// Two identical queries: the second reads no pages warm.
	lines := strings.Split(out, "\n")
	var pagesRead []string
	for _, l := range lines {
		if strings.Contains(l, "rows in") {
			pagesRead = append(pagesRead, l)
		}
	}
	if len(pagesRead) != 2 {
		t.Fatalf("expected 2 result lines:\n%s", out)
	}
	if !strings.Contains(pagesRead[1], "pages read 0") {
		t.Fatalf("warm rerun still read pages: %s", pagesRead[1])
	}
}

// TestShellScriptFailFast pins the oqlsh -e/-f contract: Script stops at
// the first failing statement and returns its error, where Run would have
// reported it and continued.
func TestShellScriptFailFast(t *testing.T) {
	sh := newShell(t)
	script := "select pa.mrn from pa in Patients where pa.mrn < 3;\nselect nothing;\nselect count(*) from pa in Patients;\n"
	var out bytes.Buffer
	err := sh.Script(strings.NewReader(script), &out)
	if err == nil {
		t.Fatalf("script error not returned:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 rows in") {
		t.Fatalf("statement before the failure did not run:\n%s", out.String())
	}
	if strings.Contains(out.String(), "count") || strings.Count(out.String(), "rows in") != 1 {
		t.Fatalf("statement after the failure ran:\n%s", out.String())
	}

	// An unknown dot-command is also fatal in script mode.
	out.Reset()
	if err := sh.Script(strings.NewReader(".bogus\n"), &out); err == nil {
		t.Fatal("unknown command did not fail the script")
	}

	// The same input under Run keeps going after the error.
	sh2 := newShell(t)
	out.Reset()
	if err := sh2.Run(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "rows in") != 2 {
		t.Fatalf("interactive run did not continue past the error:\n%s", out.String())
	}
}

// TestSplitStatements pins the one splitter both oqlsh modes read through:
// ';' outside a quoted literal ends a statement wherever it falls, and EOF
// ends the last one.
func TestSplitStatements(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []string
	}{
		{"two statements on one line", "select a; select b;",
			[]string{"select a", "select b"}},
		{"one statement over two lines", "select a\n  from b;\n",
			[]string{"select a\n  from b"}},
		{"last statement without ';'", "select a;\nselect b",
			[]string{"select a", "select b"}},
		{"';' inside quoted literals", `select a where x = "p;q" and y = 'r;"s'; select b;`,
			[]string{`select a where x = "p;q" and y = 'r;"s'`, "select b"}},
		{"dot-commands between statements", "select a;\n  .warm\n.explain select c; .cold\nselect b;",
			[]string{"select a", ".warm", ".explain select c", ".cold", "select b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sp splitter
			var got []string
			for _, line := range strings.Split(tc.in, "\n") {
				got = append(got, sp.line(line)...)
			}
			if got = sp.end(got); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("split %q:\n got %q\nwant %q", tc.in, got, tc.want)
			}
		})
	}

	// Both statements of one line run, in order.
	sh := newShell(t)
	var out bytes.Buffer
	err := sh.Script(strings.NewReader("select count(*) from pa in Patients where pa.mrn < 5; select count(*) from pa in Patients where pa.mrn < 9;"), &out)
	if err != nil || !strings.Contains(out.String(), "\n4 rows in") || !strings.Contains(out.String(), "\n8 rows in") {
		t.Fatalf("two statements on one line: %v\n%s", err, out.String())
	}
}

func TestShellPromptPrinted(t *testing.T) {
	sh := newShell(t)
	sh.Prompt = "oql> "
	out := run(t, sh, ".help\n")
	if !strings.HasPrefix(out, "oql> ") {
		t.Fatalf("prompt missing:\n%s", out)
	}
}
