package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func take(s *opStream, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.Next()
	}
	return ops
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := take(newStream(w, fullScale, 7, 0), 400)
		b := take(newStream(w, fullScale, 7, 0), 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two different streams", w.name)
		}
		if c := take(newStream(w, fullScale, 8, 0), 400); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if w.conns > 1 {
			if c := take(newStream(w, fullScale, 7, 1), 400); reflect.DeepEqual(a, c) {
				t.Errorf("%s: connections 0 and 1 gave the same stream", w.name)
			}
		}
		commits := 0
		for _, o := range a {
			if o.commit {
				commits++
			}
		}
		if want := int(math.Round(w.commitShare * 400)); commits != want {
			t.Errorf("%s: %d commits in 400 ops, want %d", w.name, commits, want)
		}
	}
	// pool_pressure is analytic with a smaller pool: same statements.
	an, _ := workloadByName("analytic")
	pp, _ := workloadByName("pool_pressure")
	if !reflect.DeepEqual(take(newStream(an, fullScale, 7, 0), 100), take(newStream(pp, fullScale, 7, 0), 100)) {
		t.Error("pool_pressure does not issue analytic's statements")
	}
}

func TestAnalyticSharesAreFixed(t *testing.T) {
	an, _ := workloadByName("analytic")
	counts := make(map[string]int)
	for _, o := range take(newStream(an, fullScale, 3, 0), 200) {
		counts[o.stmt[:18]]++
	}
	// Of every 20 ops: 3 counts, 6 aggregates, 5 order-bys, 2 ranges, 4 joins.
	want := map[string]int{
		"select count(*) fr": 30, "select avg(pa.age)": 60,
		"select pa.mrn from": 50, "select pa.mrn, pa.": 20, "select p.name, pa.": 40,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("class counts %v, want %v", counts, want)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9}, 50); got != 3 {
		t.Errorf("p50 of {3, 9} = %v, want 3: nearest rank does not interpolate", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// A percentile stands only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{200, 95, true}, {199, 95, false}, {20, 50, true}, {19, 50, false}, {1000, 99, true}, {999, 99, false}, {0, 50, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSpreadFollowsPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got, want := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "req", Req: 1, ID: 0, Parent: -1, Start: 0, End: 100, Mallocs: 10},
		{Name: "a", Req: 1, ID: 1, Parent: 0, Start: 10, End: 40, Mallocs: 4},
		{Name: "b", Req: 1, ID: 2, Parent: 1, Start: 15, End: 25, Mallocs: 1},
		{Name: "c", Req: 1, ID: 3, Parent: 0, Start: 50, End: 90, Mallocs: 5},
	}
	want := []selfCost{{ns: 30, mallocs: 1}, {ns: 20, mallocs: 3}, {ns: 10, mallocs: 1}, {ns: 40, mallocs: 5}}
	if got := selfCosts(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self costs %v, want %v", got, want)
	}
}

func TestTracerNestsSpansUnderTheirRequest(t *testing.T) {
	tr := newTracer(false, 8)
	for i := 0; i < 2; i++ {
		req := tr.begin("req")
		a := tr.begin("a")
		tr.end(tr.begin("b"))
		tr.end(a)
		tr.end(req)
	}
	var got []string
	for _, s := range tr.spans {
		got = append(got, s.Name, string(rune('0'+s.Req)), string(rune('0'+s.Parent+1)))
	}
	// name, request, parent+1 — the second request's spans are 3, 4, 5.
	want := "req 1 0 a 1 1 b 1 2 req 2 0 a 2 4 b 2 5"
	if strings.Join(got, " ") != want {
		t.Errorf("spans %q, want %q", strings.Join(got, " "), want)
	}
	off := &tracer{}
	off.end(off.begin("x"))
	off.count("n", 1)
	if len(off.spans) != 0 || off.meanCount("n") != 0 {
		t.Error("a tracer that is off recorded something")
	}
}

func TestParseHeapStats(t *testing.T) {
	page := `heap profile: 1: 8 [2: 16] @ heap/1048576
1: 8 [2: 16] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 123456
# TotalAlloc = 987654321
# Sys = 1
# Mallocs = 4242
# Frees = 17
# NumGC = 33
# NumForcedGC = 0
`
	h, err := parseHeapStats(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if h != (heapStats{mallocs: 4242, totalAlloc: 987654321, numGC: 33}) {
		t.Errorf("parsed %+v", h)
	}
	if _, err := parseHeapStats(strings.NewReader("# Mallocs = 1\n")); err == nil {
		t.Error("a page without TotalAlloc and NumGC parsed without error")
	}
	if _, err := parseHeapStats(strings.NewReader("# Mallocs = x\n# TotalAlloc = 1\n# NumGC = 1\n")); err == nil {
		t.Error("a malformed value parsed without error")
	}
}

func TestParseProcStat(t *testing.T) {
	// utime 250 and stime 50 ticks behind a command name with spaces.
	ms, err := parseProcStatCPUMs("42 (tree bench) d) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 5 0 1000 1 1")
	if err != nil || ms != 3000 {
		t.Errorf("cpu = %v ms, %v; want 3000", ms, err)
	}
	if _, err := parseProcStatCPUMs("garbage"); err == nil {
		t.Error("a malformed stat line parsed without error")
	}
}

func TestCommitCeiling(t *testing.T) {
	// The 38th growth wave is the one that fails; no store may reach it.
	if commitCeiling >= 38*waveGrowEvery {
		t.Fatalf("ceiling %d reaches growth wave 38 at commit %d", commitCeiling, 38*waveGrowEvery)
	}
	b := &commitBudget{}
	b.left.Store(3)
	wm, _ := workloadByName("write_mix")
	wm.commitShare = 1
	cn := &connRun{st: newStream(wm, quickScale, 1, 0), budget: b}
	for i := 0; i < 3; i++ {
		if !b.take() {
			t.Fatalf("commit %d refused below the ceiling", i+1)
		}
	}
	// At the ceiling the connection stops without sending anything: c is
	// nil, so a request would panic.
	if cn.one(true) {
		t.Error("a connection went on past the commit ceiling")
	}
	if cn.attempted != 0 || cn.firstErr == nil {
		t.Errorf("attempted %d, err %v: want nothing sent and the ceiling reported", cn.attempted, cn.firstErr)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: go run -C bench . -manifest > BENCHMARK.json")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestTracedReplay runs the in-process half of the traced pass at 50 x 10:
// the replay's spans must nest, add up, and yield every span-sourced
// metric.
func TestTracedReplay(t *testing.T) {
	r := &runner{work: t.TempDir(), sc: scale{50, 10}}
	if err := r.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"point", "write_mix"} {
		w, _ := workloadByName(name)
		rep, err := r.replay(w, 5, r.prep.mem, 100)
		if err != nil {
			t.Fatal(err)
		}
		costs := selfCosts(rep.on.spans)
		self := make(map[int]int64) // request -> summed self time
		var roots []span
		for i, s := range rep.on.spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %d ends before it starts", name, i)
			}
			if costs[i].ns < 0 {
				t.Fatalf("%s: span %d (%s) has negative self time: children overlap or escape it", name, i, s.Name)
			}
			self[s.Req] += costs[i].ns
			if s.Parent < 0 {
				roots = append(roots, s)
			}
		}
		if len(roots) != 100 {
			t.Fatalf("%s: %d request roots for 100 ops", name, len(roots))
		}
		for _, s := range roots {
			if self[s.Req] != s.End-s.Start {
				t.Fatalf("%s: request %d self times sum to %d ns, its root span lasts %d ns", name, s.Req, self[s.Req], s.End-s.Start)
			}
		}
		by := selfSamples(rep.on.spans)
		wantSpans := []string{"wire.encode_query", "wire.decode_query", "session.fork", "engine.cold_restart",
			"oql.plan_miss", "oql.plan_hit", "oql.execute", "session.to_wire", "wire.encode_result", "wire.decode_result", "session.render"}
		if name == "write_mix" {
			wantSpans = append(wantSpans, "engine.fork_mutable", "derby.apply_wave", "engine.publish",
				"persist.encode_commit", "wal.enqueue", "wal.wait")
			if got := len(by["session.fork"]); got != rep.commits {
				t.Errorf("write_mix: %d forks for %d commits, want one after each", got, rep.commits)
			}
		}
		for _, s := range wantSpans {
			if len(by[s]) == 0 {
				t.Errorf("%s: no %s span", name, s)
			}
		}
		if m := selfSamples(rep.mem.spans)["oql.execute"]; len(m) == 0 || m[0].mallocs <= 0 {
			t.Errorf("%s: the allocation pass counted no allocation in oql.execute", name)
		}
		if rep.on.meanCount("wire.result_bytes") <= 0 {
			t.Errorf("%s: no result bytes counted", name)
		}
	}
}
