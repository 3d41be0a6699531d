package treebench_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
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

// codeRoots are the programs whose reach decides what code stays: the four
// cmd/ mains, bench/'s main (the live benchmark, which alone calls
// client.Ping, ChainStore.Update and Planner.Execute), and every example
// kept, each with why it is kept: an example stays only while it shows
// something no experiment, smoke or godoc Example does. A new main without
// a line here fails.
var codeRoots = map[string]string{
	"cmd/treebench":      "the paper's experiments and tables",
	"cmd/treebenchd":     "the query daemon the live benchmark drives",
	"cmd/oqlsh":          "the OQL shell, local and against a daemon",
	"cmd/treebench-snap": "saves, verifies and inspects snapshot files and chains",
	"bench":              "the live query-path benchmark BENCHMARK.json runs",
	"examples/resultsdb": "§3.3's results database in the Figure 3 schema, the only caller of stats.(*DB).OQL and All",
	"examples/odmg":      "inheritance, relationships and reference-keyed indexes, the ODMG features of §4.4 (the only caller of engine.RefKey)",
	"examples/xmltree":   "the intro's XML motivation on a non-Derby schema",
}

// codeAllowed are the functions under internal/ that no root reaches but
// that stay, each with why: test seams, and accessors that other packages'
// tests call. A helper only its own package's tests need lives in that
// package's _test.go instead. What only these reach is allowed with them.
var codeAllowed = map[string]string{
	"persist.PageEqual":            "the recovery tests' page-image comparison, used across packages (server/commit_test.go)",
	"object.(*Handle).Class":       "the inheritance tests check which class a handle resolved",
	"object.(*Class).Parent":       "the inheritance tests check the class graph",
	"object.(*Class).Subclasses":   "the inheritance tests check the class graph",
	"object.(*Table).Live":         "the engine and join tests check that every handle is released",
	"object.(*Table).MaxBytes":     "the join tests check the handle table's high-water mark",
	"engine.(*Session).SetBatch":   "the seam the byte-identity tests vary the batch size through",
	"cache.(*Server).Resident":     "the cache and engine tests check what a cold restart empties",
	"storage.(*Disk).Write":        "makes the raw disk a Pager for tests that run files and indexes without caches",
	"storage.(*Base).Delta":        "the chain tests check a head's delta chain",
	"storage.NewBase":              "the chain tests rebuild a flat base from a head's pages",
	"sim.(*Meter).ScanNext":        "the charge of the handle-at-a-time reference loops in selection/scalar_test.go",
	"persist.(*Cache).Generations": "the warm-boot tests check that a second boot generates nothing",
	"oql.(*Query).String":          "the parser round-trip tests print a query back",
	"collection.Len":               "the generator tests check collection sizes",
	"wal.(*Log).Append":            "the tests' one-call enqueue-and-wait",
	"core.(*Runner).Run":           "the tests run one experiment by id",
	"core.(*Runner).RunAll":        "the determinism tests run every experiment in order",
	"core.(*Table).String":         "the determinism tests compare rendered tables",
}

// TestCodeCensus holds the code under internal/ to the rule the options
// census holds the knobs to: a function no main reaches is deleted or has
// a line in codeAllowed. It type-checks every package from source with the
// standard library alone and walks a conservative reference graph: a
// function is live if a live function calls it or takes its value (a
// package's initializers count as live once a root imports it), and every
// method of a type a live function converts to an interface is live.
func TestCodeCensus(t *testing.T) {
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			if _, ok := codeRoots[filepath.ToSlash(dir)]; !ok {
				t.Errorf("%s has no line in codeRoots saying why it is kept", dir)
			}
		}
	}
	l := loadCensus(t)
	l.live, l.work = map[*types.Func]bool{}, nil
	for _, p := range l.pkgs {
		p.marked = false
	}
	for dir := range codeRoots {
		p := l.pkgs["treebench/"+dir]
		main, _ := p.types.Scope().Lookup("main").(*types.Func)
		if p.types.Name() != "main" || main == nil {
			t.Fatalf("%s is not a main package", dir)
		}
		l.markPackage(p)
		l.mark(main)
	}
	l.drain()
	reached := l.live
	// A second pass from the allowlist finds what only allowed code needs.
	l.live = maps.Clone(reached)
	for fn, d := range l.decl {
		if _, ok := codeAllowed[censusName(fn)]; ok && strings.HasPrefix(d.pkg.path, "treebench/internal/") {
			l.mark(fn)
		}
	}
	l.drain()

	seen := map[string]bool{}
	for fn, d := range l.decl {
		if !strings.HasPrefix(d.pkg.path, "treebench/internal/") {
			continue
		}
		name := censusName(fn)
		seen[name] = true
		_, allowed := codeAllowed[name]
		switch {
		case !l.live[fn]:
			t.Errorf("%s (%s) is reached by no main: delete it, or give it a codeAllowed line",
				name, l.fset.Position(d.node.Pos()))
		case reached[fn] && allowed:
			t.Errorf("%s has a codeAllowed line but a main reaches it", name)
		}
	}
	for name := range codeAllowed {
		if !seen[name] {
			t.Errorf("codeAllowed names %s, which is not a function under internal/", name)
		}
	}
}

// TestCostModelStaysInSim holds internal/sim to being the only code that
// knows which constant prices which event: no non-test file outside it
// names a CostModel field. Passing a model along, or walking its Fields(),
// is fine; a cost is a sim.Counters or sim.Expected priced by sim.
func TestCostModelStaysInSim(t *testing.T) {
	l := loadCensus(t)
	const simPath = "treebench/internal/sim"
	model := l.pkgs[simPath].types.Scope().Lookup("CostModel").Type().Underlying().(*types.Struct)
	fields := map[types.Object]bool{}
	for i := 0; i < model.NumFields(); i++ {
		fields[model.Field(i)] = true
	}
	for path, p := range l.pkgs {
		if path == simPath {
			continue
		}
		for id, obj := range p.info.Uses {
			if fields[obj] {
				t.Errorf("%s names sim.CostModel.%s: price a sim vector instead",
					l.fset.Position(id.Pos()), obj.Name())
			}
		}
	}
}

// determinismAllowed are the calls and map ranges inside the determinism
// boundary that TestDeterminismBoundary lets through, each with why it
// cannot move an answer. A call is keyed by file and callee, a range by
// file, enclosing function and ranged expression.
var determinismAllowed = map[string]string{
	"internal/engine/parallel.go runtime.NumCPU": "DefaultQueryJobs sizes the chunk worker pool; chunks and their charges do not depend on how many workers run them",
	"internal/persist/cache.go os.Getenv":        "DefaultDir locates the snapshot cache; a loaded snapshot is byte-identical to the one its key generates",

	"internal/engine/engine.go Extents range db.extents":           "collects the names, then sorts them",
	"internal/engine/engine.go IndexBackend range db.indexes":      "runs only when no kind was set, so every index came from one snapshot built under one kind: any index answers",
	"internal/engine/engine.go BackendCounters range db.indexes":   "integer sums commute; a per-query path, so no sort",
	"internal/engine/snapshot.go IndexBackend range sn.indexes":    "a snapshot's indexes were built under its builder's one kind: any index answers",
	"internal/engine/snapshot.go BackendCounters range sn.indexes": "integer sums commute; read around each commit, so no sort",
	"internal/engine/snapshot.go fork range sn.extents":            "both loops fill the fork's maps by extent name, and each extent's indexes are cloned in its own slice's order",
	"internal/engine/snapshot.go PrimeStats range sn.extents":      "each histogram depends on its index's entries alone; the order moves only the throwaway fork's meter",
	"internal/engine/state.go State range sn.extents":              "collects the names, then sorts them",
	"internal/object/class.go Clone range c.byName":                "copies a map into a map",
	"internal/object/class.go Clone range r.byName":                "cloneClass is memoized and keeps each class's ID, so the clone graph is the same in any order",
	"internal/join/join.go runPHJ range t":                         "a set union of the per-chunk build tables: the merged set is the same in any order",
	"internal/join/join.go runCHJ range t":                         "per key, appends the chunks' groups in chunk order (tables[1:] is a slice); keys never interact",
	"internal/join/join.go runCHJ range table":                     "sums group sizes: integer sums commute",
	"internal/storage/delta.go OverlayIDs range d.overlay":         "collects the ids, then sorts them",
	"internal/storage/delta.go NewDelta range overlay":             "validation: a delta is refused if and only if some page is bad, in any order; only which bad page the error names may vary",
	"internal/storage/file.go Fork range s.files":                  "copies each file into a map by name; the creation order travels in s.order",
}

// TestDeterminismBoundary holds the code a query runs on, internal/session
// and internal/persist and everything they import, to answers that depend
// on their inputs alone: a call to the wall clock, the environment, the
// machine's CPU count or math/rand's global source, and a range over a map
// (whose order Go randomizes), fail unless determinismAllowed gives a
// reason. A seeded generator (rand.New…) is fine.
func TestDeterminismBoundary(t *testing.T) {
	l := loadCensus(t)
	banned := map[string]bool{
		"time.Now": true, "time.Since": true, "os.Getenv": true, "os.LookupEnv": true,
		"runtime.NumCPU": true, "runtime.GOMAXPROCS": true,
	}
	inside := map[*censusPkg]bool{}
	var visit func(p *censusPkg)
	visit = func(p *censusPkg) {
		if !inside[p] {
			inside[p] = true
			for _, q := range p.imports {
				visit(q)
			}
		}
	}
	visit(l.pkgs["treebench/internal/session"])
	visit(l.pkgs["treebench/internal/persist"])
	seen := map[string]bool{}
	for p := range inside {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			callee := fn.Pkg().Name() + "." + fn.Name()
			random := strings.HasPrefix(fn.Pkg().Path(), "math/rand") && !strings.HasPrefix(fn.Name(), "New")
			if !banned[fn.Pkg().Path()+"."+fn.Name()] && !random {
				continue
			}
			pos := l.fset.Position(id.Pos())
			key := filepath.ToSlash(pos.Filename) + " " + callee
			seen[key] = true
			if _, ok := determinismAllowed[key]; !ok {
				t.Errorf("%s calls %s inside the determinism boundary: take it as an input, or give it a determinismAllowed line", pos, callee)
			}
		}
		for _, f := range p.files {
			var fn string
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn = n.Name.Name
				case *ast.RangeStmt:
					if _, ok := p.info.TypeOf(n.X).Underlying().(*types.Map); ok {
						pos := l.fset.Position(n.Pos())
						key := filepath.ToSlash(pos.Filename) + " " + fn + " range " + types.ExprString(n.X)
						seen[key] = true
						if _, ok := determinismAllowed[key]; !ok {
							t.Errorf("%s: %s ranges over a map inside the determinism boundary: iterate in a fixed order, or give %q a determinismAllowed line", pos, fn, key)
						}
					}
				}
				return true
			})
		}
	}
	for key := range determinismAllowed {
		if !seen[key] {
			t.Errorf("determinismAllowed names %s, which the code no longer has", key)
		}
	}
}

// census holds the loaded packages the source-scan tests share: loading
// type-checks the standard library too, and once is enough.
var census struct {
	once sync.Once
	l    *censusLoader
	err  error
}

// loadCensus type-checks, from source with the standard library alone,
// every main in codeRoots and every package under internal/, reached or
// not, so a package nothing imports shows up as dead code too.
func loadCensus(t *testing.T) *censusLoader {
	t.Helper()
	census.once.Do(func() { census.l, census.err = newCensusLoader() })
	if census.err != nil {
		t.Fatal(census.err)
	}
	return census.l
}

func newCensusLoader() (*censusLoader, error) {
	// The source importer type-checks the standard library too; without
	// cgo it reads only Go files and runs no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	l := &censusLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*censusPkg{},
		decl: map[*types.Func]*censusFunc{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for dir := range codeRoots {
		if _, err := l.load("treebench/" + dir); err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, err := l.load("treebench/" + filepath.ToSlash(path)); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return fmt.Errorf("%s: %w", path, err)
		}
		return nil
	})
	return l, err
}

type censusPkg struct {
	path    string
	types   *types.Package
	info    *types.Info
	files   []*ast.File
	marked  bool
	imports []*censusPkg
}

type censusFunc struct {
	pkg  *censusPkg
	node ast.Node // the declaration: receiver, signature and body
}

type censusLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*censusPkg
	live map[*types.Func]bool
	decl map[*types.Func]*censusFunc
	work []*types.Func
}

// Import resolves the module's own packages (bench/ included, whose module
// path extends this one's) from their directories and the standard
// library through the source importer.
func (l *censusLoader) Import(path string) (*types.Package, error) {
	if path != "treebench" && !strings.HasPrefix(path, "treebench/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *censusLoader) load(path string) (*censusPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	p := &censusPkg{path: path}
	l.pkgs[path] = p
	dir := "." + strings.TrimPrefix(path, "treebench")
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	for _, imp := range bp.Imports {
		if q := l.pkgs[imp]; q != nil {
			p.imports = append(p.imports, q)
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					l.decl[fn] = &censusFunc{pkg: p, node: fd}
				}
			}
		}
	}
	p.types = tp
	return p, nil
}

// drain walks every function marked live and not yet walked.
func (l *censusLoader) drain() {
	for len(l.work) > 0 {
		fn := l.work[len(l.work)-1]
		l.work = l.work[:len(l.work)-1]
		if d := l.decl[fn]; d != nil {
			l.markPackage(d.pkg)
			l.walk(d.pkg, d.node)
		}
	}
}

func (l *censusLoader) mark(fn *types.Func) {
	fn = fn.Origin()
	if !l.live[fn] {
		l.live[fn] = true
		l.work = append(l.work, fn)
	}
}

// markPackage makes a package's initialization live, and with it that of
// every package it imports: package-level variable initializers and init
// functions run whether or not anything calls into the package.
func (l *censusLoader) markPackage(p *censusPkg) {
	if p == nil || p.marked {
		return
	}
	p.marked = true
	for _, q := range p.imports {
		l.markPackage(q)
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					l.walk(p, d)
				}
			case *ast.FuncDecl:
				if d.Name.Name == "init" && d.Recv == nil {
					l.walk(p, d.Body)
				}
			}
		}
	}
}

// convert marks every method of t live: a value of t became an interface
// value, and from there any of its methods may be called.
func (l *censusLoader) convert(t types.Type) {
	if t == nil || types.IsInterface(t) {
		return
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		l.mark(ms.At(i).Obj().(*types.Func))
	}
}

// convertTo records that a value of type from is stored where a value of
// type to is expected.
func (l *censusLoader) convertTo(to, from types.Type) {
	if to != nil && types.IsInterface(to) {
		l.convert(from)
	}
}

// walk marks what node references: the functions it names and the methods
// of every type it converts to an interface.
func (l *censusLoader) walk(p *censusPkg, node ast.Node) {
	info := p.info
	var results []*types.Tuple // result types of the enclosing functions
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				l.mark(fn)
			}
			if inst, ok := info.Instances[n]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					l.convert(inst.TypeArgs.At(i))
				}
			}
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			results = append(results, info.Defs[n.Name].Type().(*types.Signature).Results())
			ast.Inspect(n.Body, visit)
			results = results[:len(results)-1]
			return false
		case *ast.FuncLit:
			results = append(results, info.TypeOf(n).(*types.Signature).Results())
			ast.Inspect(n.Body, visit)
			results = results[:len(results)-1]
			return false
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					l.convertTo(tv.Type, info.TypeOf(n.Args[0]))
				}
				break
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				break
			}
			args := censusTypes(info, n.Args)
			params := sig.Params()
			for i, at := range args {
				switch {
				case sig.Variadic() && i >= params.Len()-1:
					last := params.At(params.Len() - 1).Type()
					if n.Ellipsis.IsValid() {
						l.convertTo(last, at)
					} else if s, ok := last.Underlying().(*types.Slice); ok {
						l.convertTo(s.Elem(), at)
					}
				case i < params.Len():
					l.convertTo(params.At(i).Type(), at)
				}
			}
		case *ast.AssignStmt:
			rhs := censusTypes(info, n.Rhs)
			for i, lhs := range n.Lhs {
				if i < len(rhs) {
					l.convertTo(info.TypeOf(lhs), rhs[i])
				}
			}
		case *ast.ValueSpec:
			values := censusTypes(info, n.Values)
			for i, name := range n.Names {
				if i < len(values) {
					if obj := info.Defs[name]; obj != nil {
						l.convertTo(obj.Type(), values[i])
					}
				}
			}
		case *ast.ReturnStmt:
			if len(results) > 0 {
				res := results[len(results)-1]
				for i, at := range censusTypes(info, n.Results) {
					if i < res.Len() {
						l.convertTo(res.At(i).Type(), at)
					}
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				l.convertTo(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.CompositeLit:
			l.compositeLit(info, n)
		}
		return true
	}
	ast.Inspect(node, visit)
}

func (l *censusLoader) compositeLit(info *types.Info, n *ast.CompositeLit) {
	t := info.TypeOf(n)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok { // &T{} elided in a slice of *T
		t = ptr.Elem()
	}
	for i, elt := range n.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		val := elt
		if keyed {
			val = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					l.convertTo(f.Type(), info.TypeOf(val))
				}
			} else if i < u.NumFields() {
				l.convertTo(u.Field(i).Type(), info.TypeOf(val))
			}
		case *types.Slice:
			l.convertTo(u.Elem(), info.TypeOf(val))
		case *types.Array:
			l.convertTo(u.Elem(), info.TypeOf(val))
		case *types.Map:
			if keyed {
				l.convertTo(u.Key(), info.TypeOf(kv.Key))
			}
			l.convertTo(u.Elem(), info.TypeOf(val))
		}
	}
}

// censusTypes returns the types of exprs, spreading a single multi-value
// call into its results.
func censusTypes(info *types.Info, exprs []ast.Expr) []types.Type {
	if len(exprs) == 1 {
		if tup, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok {
			out := make([]types.Type, tup.Len())
			for i := range out {
				out[i] = tup.At(i).Type()
			}
			return out
		}
	}
	out := make([]types.Type, len(exprs))
	for i, e := range exprs {
		out[i] = info.TypeOf(e)
	}
	return out
}

// censusName names fn the way the census lists it: persist.PageEqual,
// persist.(*Cache).Dir, cache.(LRU).Put.
func censusName(fn *types.Func) string {
	pkg := strings.TrimPrefix(fn.Pkg().Path(), "treebench/internal/")
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
	if i := strings.IndexByte(recv, '['); i >= 0 {
		recv = recv[:i]
	}
	return pkg + ".(" + recv + ")." + fn.Name()
}
