package treebench_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"treebench/internal/core"
	"treebench/internal/server"
	"treebench/internal/session"
)

var (
	flagDef = regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)\(\s*"([^"]+)"`)
	envLit  = regexp.MustCompile(`"(TREEBENCH_[A-Z0-9_]+)"`)
	quoted  = regexp.MustCompile("`([^`]+)`")
)

// TestOptionCensus holds every setting to DESIGN.md's "Options census":
// each flag registered in cmd/ or internal/cli, each TREEBENCH_* variable
// and each field of core.Config, session.Config and server.Config has a
// row saying who sets it to what and which number moves, and every row
// names an option the code still has. A new knob without a row fails
// here, not at the next re-anchor.
func TestOptionCensus(t *testing.T) {
	code := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "census_test.go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		if !strings.HasSuffix(path, "_test.go") &&
			(strings.HasPrefix(slash, "cmd/") || strings.HasPrefix(slash, "internal/cli/")) {
			for _, m := range flagDef.FindAllSubmatch(src, -1) {
				code["-"+string(m[1])] = true
			}
		}
		for _, m := range envLit.FindAllSubmatch(src, -1) {
			code[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]any{
		"core.Config": core.Config{}, "session.Config": session.Config{}, "server.Config": server.Config{},
	} {
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			code[name+"."+typ.Field(i).Name] = true
		}
	}

	rows := censusRows(t)
	for name := range code {
		if !rows[name] {
			t.Errorf("%s has no row in DESIGN.md's options census", name)
		}
	}
	for name := range rows {
		if !code[name] {
			t.Errorf("DESIGN.md's options census names %s, which the code no longer has", name)
		}
	}
}

// censusRows returns the options named in the first column of the table
// under DESIGN.md's "## Options census", checking that every row says who
// sets it and which number moves.
func censusRows(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(b), "\n## Options census\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Options census" section`)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		if len(cells) != 5 || strings.TrimSpace(cells[2]) == "" || strings.TrimSpace(cells[3]) == "" {
			t.Errorf("census row %q: want option | mains | who sets it to what | which number moves | kind", line)
		}
		for _, m := range quoted.FindAllStringSubmatch(cells[0], -1) {
			rows[m[1]] = true
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md's options census has no table rows")
	}
	return rows
}
