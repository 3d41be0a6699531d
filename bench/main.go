// Command bench is treebench's benchmark of the live query path: it builds
// the real treebenchd, drives it from one closed-loop load generator over
// internal/client, checks every answer, and reports end-to-end metrics;
// a separate traced pass replays the same requests in-process, one span
// per layer call, and probes the layers underneath. README.md documents
// the workloads, the metrics and how to read the output.
//
// Usage (from the repository root):
//
//	go run -C bench .                          # all workloads, both passes
//	go run -C bench . -workload point -trace 0 # one run, as the driver makes it
//	go run -C bench . -repeat 10               # run-to-run spread against the bounds
//	go run -C bench . -quick                   # ~15 s smoke at 200 x 20
//
// A run of one workload with -trace 0 or 1 ends its standard output with
// one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"treebench/internal/bufpool"
	"treebench/internal/persist"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1997, "request-stream seed; the database is always Derby seed 1997")
		seconds  = flag.Float64("seconds", 0, fmt.Sprintf("measured window per run, shared by its %d rounds (default %d, 3 with -quick)", rounds, runSeconds))
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; default both")
		repeat   = flag.Int("repeat", 0, "run the untraced pass N times on seeds seed..seed+N-1 and print each metric's spread against its bound")
		quick    = flag.Bool("quick", false, "smoke run: 200 x 20 database, short windows, a tenth of the replay")
		jsonPath = flag.String("json", "", "also write the environment and every result to this file")
		out      = flag.String("out", "", "directory for span files and daemon logs (default .bench_build/out)")
		manif    = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *manif {
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *trace < -1 || *trace > 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *jsonPath != "" && runtime.NumCPU() < 2 {
		return fail(fmt.Errorf("refusing to record results on %d CPU: the load generator and the daemon would share it", runtime.NumCPU()))
	}
	// The defaults are what is measured, in the daemons and in here.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "TREEBENCH_") {
			os.Unsetenv(k)
		}
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	build := filepath.Join(root, ".bench_build")
	r := &runner{
		work: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		out:  *out,
		bin:  filepath.Join(build, "bin", "treebenchd"),
		sc:   fullScale,
		sup:  newSupervisor(),
		cal:  newCalibrator(),
		log:  os.Stderr,
	}
	replayShare := 1.0
	if *quick {
		r.sc, replayShare = quickScale, 0.1
	}
	if *seconds == 0 {
		*seconds = runSeconds
		if *quick {
			*seconds = 3
		}
	}
	if r.out == "" {
		r.out = filepath.Join(build, "out")
	}
	for _, dir := range []string{r.work, r.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	}
	// Every exit path kills the daemons and removes the work directory:
	// return, signal, and panic (re-raised once the children are gone).
	cleanup := func() {
		r.sup.killAll()
		os.RemoveAll(r.work)
	}
	defer func() {
		cleanup()
		if p := recover(); p != nil {
			panic(p)
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()

	if err := buildDaemon(root, r.bin); err != nil {
		return fail(err)
	}
	env := environment(root, r)
	fmt.Printf("env: %s\n", env)

	rec := &record{Env: env, Seed: *seed, Seconds: *seconds}
	if *repeat > 0 {
		over, err := r.repeat(selected, *seed, *seconds, *repeat, rec)
		if err != nil {
			return fail(err)
		}
		if err := writeJSON(*jsonPath, rec); err != nil {
			return fail(err)
		}
		if over > 0 {
			fmt.Printf("%d end-to-end metric(s) spread wider than their bound\n", over)
			return 1
		}
		return 0
	}
	last, failed, err := r.passes(selected, *seed, *seconds, *trace, replayShare, rec)
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(*jsonPath, rec); err != nil {
		return fail(err)
	}
	// The driver's contract: one workload, one pass, one JSON object last.
	var line []byte
	if *name != "" && *trace >= 0 {
		line, err = json.Marshal(last)
	} else {
		line, err = json.Marshal(rec.Results)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if failed {
		return 1
	}
	return 0
}

// record is what -json writes.
type record struct {
	Env     envBlock                        `json:"env"`
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string][]map[string]float64 `json:"repeat_runs,omitempty"`
	RawRuns map[string][]map[string]float64 `json:"repeat_runs_wall_clock,omitempty"`
	Results map[string]map[string]*result   `json:"results,omitempty"`
}

// repeat runs the untraced pass n times per workload on consecutive seeds
// and prints each metric's spread; it returns how many spread wider than
// their bound.
func (r *runner) repeat(selected []workload, seed int64, seconds float64, n int, rec *record) (over int, err error) {
	rec.Runs = make(map[string][]map[string]float64)
	rec.RawRuns = make(map[string][]map[string]float64)
	for _, w := range selected {
		for i := 0; i < n; i++ {
			u, err := r.measure(w, seed+int64(i), seconds, rounds)
			if err != nil {
				return 0, err
			}
			if u.failed > 0 {
				return 0, fmt.Errorf("%s seed %d: %d of %d ops failed: %v", w.name, seed+int64(i), u.failed, u.attempted, u.firstErr)
			}
			rec.Runs[w.name] = append(rec.Runs[w.name], u.endToEnd())
			rec.RawRuns[w.name] = append(rec.RawRuns[w.name], u.endToEndAt(1))
		}
		over += printRepeat(os.Stdout, w.name, rec.Runs[w.name], rec.RawRuns[w.name])
	}
	return over, nil
}

// passes runs the untraced pass (trace 0), the traced pass (trace 1) or
// both (trace -1) of every selected workload. It returns the last result
// and whether any run had a failure.
func (r *runner) passes(selected []workload, seed int64, seconds float64, trace int, replayShare float64, rec *record) (last *result, failed bool, err error) {
	rec.Results = make(map[string]map[string]*result)
	for _, w := range selected {
		rec.Results[w.name] = make(map[string]*result)
		if trace != 1 {
			u, err := r.measure(w, seed, seconds, rounds)
			if err != nil {
				return nil, false, err
			}
			values := u.endToEnd()
			printMetrics(os.Stdout, w.name+", tracing off", u, endToEnd, values, u.endToEndAt(1))
			last = newResult(u, endToEnd, values)
			rec.Results[w.name]["end_to_end"] = last
			failed = failed || u.failed > 0
		}
		if trace != 0 {
			u, values, err := r.traced(w, seed, seconds, replayShare)
			if err != nil {
				return nil, false, err
			}
			printMetrics(os.Stdout, w.name+", traced pass", u, perLayer, values, nil)
			last = newResult(u, perLayer, values)
			rec.Results[w.name]["per_layer"] = last
			failed = failed || u.failed > 0
		}
	}
	return last, failed, nil
}

// traced is the per-layer pass of one workload: one daemon round for the
// counters only a daemon has, then in-process the replay and the probes,
// over the same snapshot file and pool setting the daemon ran with.
func (r *runner) traced(w workload, seed int64, seconds, replayShare float64) (*measured, map[string]float64, error) {
	u, err := r.measure(w, seed, seconds/rounds, 1)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]float64, len(perLayer))
	m["derby.generate_s"] = r.prep.generateS
	m["persist.save_s"] = r.prep.saveS
	m["persist.snapshot_mb"] = r.prep.snapshotMB

	poolMB := w.poolMB
	if poolMB == 0 {
		poolMB = bufpool.DefaultCapacityMB
	}
	bufpool.Setup(poolMB, bufpool.DefaultReadahead)
	t0 := time.Now()
	ld, err := persist.Load(r.prep.snapPath)
	if err != nil {
		return nil, nil, err
	}
	m["persist.load_ms"] = float64(time.Since(t0)) / 1e6
	if err := probePages(ld, m); err != nil {
		return nil, nil, err
	}
	// What the daemon's sessions fork from: the generated image after a
	// cold boot, the loaded file after a warm one (primed by the server in
	// both cases), the unprimed loaded base under a chain store.
	snap := ld
	switch w.boot {
	case bootCold:
		snap = r.prep.mem
	case bootWarm:
		if err := ld.Engine.PrimeStats(); err != nil {
			return nil, nil, err
		}
	}
	nOps := int(float64(w.replayOps) * replayShare)
	rep, err := r.replay(w, seed, snap, nOps)
	if err != nil {
		return nil, nil, err
	}
	spanPath := filepath.Join(r.out, "spans-"+w.name+".jsonl")
	if err := writeSpans(spanPath, rep.on.spans); err != nil {
		return nil, nil, err
	}
	r.logf("%s: %d spans of %d replayed ops in %s", w.name, len(rep.on.spans), rep.ops, spanPath)
	if err := probeRead(snap, r.sc, rep.stmts, m); err != nil {
		return nil, nil, err
	}
	forkFrom := snap
	if w.commitShare > 0 {
		if forkFrom, err = r.probeWrite(ld, m); err != nil {
			return nil, nil, err
		}
	}
	if err := probeFork(forkFrom, m); err != nil {
		return nil, nil, err
	}
	return u, layerMetrics(u, rep, m), nil
}

// findRoot walks up from the working directory to the treebench module:
// the benchmark builds the daemon there and keeps its files under its
// .bench_build.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module treebench\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no treebench go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

func buildDaemon(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/treebenchd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/treebenchd: %w\n%s", err, b)
	}
	return nil
}

// envBlock says where the numbers were taken.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Filesystem string `json:"filesystem"`
	Database   string `json:"database"`
}

func (e envBlock) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, filesystem %s, database %s",
		e.NProc, e.GOMAXPROCS, e.Go, e.Kernel, e.Commit, e.Filesystem, e.Database)
}

func environment(root string, r *runner) envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Filesystem: "unknown",
		Database: fmt.Sprintf("Derby %d x %d class seed %d", r.sc.providers, r.sc.avg, dataSeed),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; that is not an error.
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(r.work, &st); err == nil {
		names := map[int64]string{0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if n, ok := names[int64(st.Type)]; ok {
			e.Filesystem = n
		} else {
			e.Filesystem = fmt.Sprintf("%#x", st.Type)
		}
	}
	return e
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
