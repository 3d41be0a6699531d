package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/persist"
	"treebench/internal/session"
	"treebench/internal/wire"
)

// maxRows is the sample the client asks for and renders (its default).
const maxRows = 10

// dataSeed is the Derby generator seed; --seed varies the requests, never
// the database.
const dataSeed = 1997

// runner holds what every run of one process shares.
type runner struct {
	work string // scratch space under .bench_build, removed on exit
	out  string // where span files and kept logs go
	bin  string // the built treebenchd
	sc   scale
	sup  *supervisor
	cal  *calibrator
	log  io.Writer // progress lines (standard error)
	prep *prepared
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.log, "bench: "+format+"\n", args...) }

// prepared is the database of a run, built once in the benchmark's own
// process: the file the warm-boot daemons load, and the in-memory
// snapshot the oracle, the replay and the probes execute against.
type prepared struct {
	cfg        derby.Config
	snapDir    string
	snapPath   string
	mem        *derby.Snapshot
	generateS  float64
	saveS      float64
	snapshotMB float64
}

func (r *runner) prepare() error {
	if r.prep != nil {
		return nil
	}
	cfg := derby.DefaultConfig(r.sc.providers, r.sc.avg, derby.ClassCluster)
	cfg.Seed = dataSeed
	p := &prepared{cfg: cfg, snapDir: filepath.Join(r.work, "snap")}
	if err := os.MkdirAll(p.snapDir, 0o755); err != nil {
		return err
	}
	// The name the daemon's snapshot cache looks the configuration up by.
	p.snapPath = filepath.Join(p.snapDir, persist.KeyFor(cfg)+".tbsp")
	t0 := time.Now()
	d, err := derby.Generate(cfg)
	if err != nil {
		return err
	}
	if p.mem, err = d.Freeze(); err != nil {
		return err
	}
	p.generateS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := persist.Save(p.snapPath, p.mem); err != nil {
		return err
	}
	p.saveS = time.Since(t0).Seconds()
	fi, err := os.Stat(p.snapPath)
	if err != nil {
		return err
	}
	p.snapshotMB = float64(fi.Size()) / (1 << 20)
	// Primed once after saving, as the server primes the snapshot it serves.
	if err := p.mem.Engine.PrimeStats(); err != nil {
		return err
	}
	r.prep = p
	return nil
}

func (r *runner) daemonArgs(w workload, dir string) []string {
	args := []string{
		"-providers", strconv.Itoa(r.sc.providers), "-avg", strconv.Itoa(r.sc.avg),
		"-clustering", "class", "-seed", strconv.Itoa(dataSeed), "-sessions", "2",
	}
	switch w.boot {
	case bootCold:
		args = append(args, "-snapshot-dir", dir)
	case bootWarm:
		args = append(args, "-snapshot-dir", r.prep.snapDir)
	case bootWAL:
		args = append(args, "-wal", dir,
			"-compact-every", strconv.Itoa(compactEvery), "-wave-grow-every", strconv.Itoa(waveGrowEvery))
	}
	if w.poolMB > 0 {
		args = append(args, "-bufpool-mb", strconv.Itoa(w.poolMB))
	}
	return args
}

// round is what one boot → warm-up → measured window cycle observed.
type round struct {
	setupS    float64
	wallS     float64
	attempted int // every op sent, warm-up included
	failed    int
	ops       int // completed inside the window, commits included
	commits   int // acknowledged inside the window
	qMs, cMs  []float64

	cpuMs, mallocs, allocKB, gcs float64 // daemon deltas over the window
	rssMB                        float64
	before, after                *wire.Stats

	relocated int64    // objects relocated by the window's commits
	versions  []uint64 // every acknowledged commit version, warm-up included
	firstErr  error

	recoverS       float64
	recoverCommits int
}

// crcs maps a statement to the CRC of its rendered result.
type crcs map[string]uint32

// connRun is one connection's share of a round.
type connRun struct {
	c      *client.Client
	st     *opStream
	budget *commitBudget
	seen   crcs // nil on write_mix: results change with every commit
	buf    bytes.Buffer

	attempted, failed, ops, commits int
	qMs, cMs                        []float64
	relocated                       int64
	versions                        []uint64
	firstErr                        error
	dead                            bool
}

// commitBudget hands out the commits one chain store may still take.
type commitBudget struct{ left atomic.Int64 }

func (b *commitBudget) take() bool { return b.left.Add(-1) >= 0 }

func (cn *connRun) fail(err error) {
	cn.failed++
	if cn.firstErr == nil {
		cn.firstErr = err
	}
}

// one sends the stream's next op and reports whether the connection can
// go on; measured ops are timed and counted.
func (cn *connRun) one(measured bool) bool {
	o := cn.st.Next()
	if o.commit && !cn.budget.take() {
		cn.firstErr = fmt.Errorf("commit ceiling of %d reached: window cut short", commitCeiling)
		return false
	}
	cn.attempted++
	t0 := time.Now()
	if o.commit {
		res, err := cn.c.Commit()
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			cn.fail(err)
			return isServerError(err)
		}
		cn.versions = append(cn.versions, res.Version)
		if measured {
			cn.ops++
			cn.commits++
			cn.cMs = append(cn.cMs, ms)
			cn.relocated += res.Relocated
		}
		return true
	}
	res, err := cn.c.Query(o.stmt, client.QueryOptions{MaxRows: maxRows})
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		cn.fail(fmt.Errorf("%s: %w", o.stmt, err))
		return isServerError(err)
	}
	if measured {
		cn.ops++
		cn.qMs = append(cn.qMs, ms)
	}
	if cn.seen != nil {
		crc := renderCRC(&cn.buf, res)
		if prev, ok := cn.seen[o.stmt]; !ok {
			cn.seen[o.stmt] = crc
		} else if prev != crc {
			cn.fail(fmt.Errorf("%s: two responses rendered differently", o.stmt))
		}
	}
	return true
}

// isServerError reports whether err is a typed answer from the daemon,
// after which the connection is still usable.
func isServerError(err error) bool {
	var se *client.ServerError
	return errors.As(err, &se)
}

func renderCRC(buf *bytes.Buffer, res *wire.Result) uint32 {
	buf.Reset()
	session.WriteResult(buf, res, maxRows)
	return crc32.ChecksumIEEE(buf.Bytes())
}

// runRound boots a fresh daemon for w, warms it up, measures one window of
// the given length on the streams, and stops the daemon. With crash set
// (write_mix's last round) the daemon is killed with SIGKILL instead and
// recovery on the same directory is checked.
func (r *runner) runRound(w workload, idx int, streams []*opStream, window time.Duration, seen crcs, crash bool) (*round, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("%s-r%d", w.name, idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := r.daemonArgs(w, dir)
	logPath := filepath.Join(r.out, fmt.Sprintf("daemon-%s-r%d.log", w.name, idx))
	// The box's speed is sampled while no daemon exists, before the round
	// and after it.
	r.cal.sample()
	d, err := r.sup.start(r.bin, args, logPath)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	ctl, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	if err := ctl.Ping(); err != nil {
		return nil, err
	}
	budget := &commitBudget{}
	budget.left.Store(commitCeiling)
	conns := make([]*connRun, w.conns)
	for i := range conns {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = &connRun{c: c, st: streams[i], budget: budget}
		if seen != nil {
			conns[i].seen = make(crcs)
		}
	}

	var warm, done sync.WaitGroup
	var deadline time.Time
	start := make(chan struct{})
	for _, cn := range conns {
		warm.Add(1)
		done.Add(1)
		go func(cn *connRun) {
			defer done.Done()
			for i := 0; i < w.warmup && !cn.dead; i++ {
				cn.dead = !cn.one(false)
			}
			warm.Done()
			<-start
			// The window ends on a whole number of the stream's cycles, so
			// that it holds the same mix of statement classes whatever
			// its length: one analytic class costs 30 times another, and
			// per-op metrics are compared between runs.
			first := cn.st.issued
			for !cn.dead && (time.Now().Before(deadline) || (cn.st.issued-first)%cn.st.cycle != 0) {
				cn.dead = !cn.one(true)
			}
		}(cn)
	}
	warm.Wait()
	rd := &round{setupS: time.Since(d.spawned).Seconds()}

	// Whatever happens while reading the daemon's counters, the
	// connections are released and waited for: with a zero deadline they
	// return at once.
	var heap0 heapStats
	var cpu0 float64
	var t0 time.Time
	err = func() (err error) {
		if heap0, err = d.heap(); err != nil {
			return err
		}
		if rd.before, err = ctl.Stats(); err != nil {
			return err
		}
		cpu0, err = d.cpuMs()
		return err
	}()
	if err == nil {
		t0 = time.Now()
		deadline = t0.Add(window)
	}
	close(start)
	done.Wait()
	if err != nil {
		return nil, err
	}
	rd.wallS = time.Since(t0).Seconds()
	cpu1, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	heap1, err := d.heap()
	if err != nil {
		return nil, err
	}
	if rd.after, err = ctl.Stats(); err != nil {
		return nil, err
	}
	if rd.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	rd.cpuMs = cpu1 - cpu0
	rd.mallocs = heap1.mallocs - heap0.mallocs
	rd.allocKB = (heap1.totalAlloc - heap0.totalAlloc) / 1024
	rd.gcs = heap1.numGC - heap0.numGC

	rd.tally(conns, seen)
	if rd.ops == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window (first error: %v)", w.name, rd.firstErr)
	}

	stopped = true
	if crash {
		d.kill()
		if err := r.recoverCheck(w, idx, args, rd); err != nil {
			return nil, err
		}
	} else {
		d.stop()
	}
	r.cal.sample()
	return rd, nil
}

// miss counts one failed check.
func (rd *round) miss(format string, args ...any) {
	rd.failed++
	if rd.firstErr == nil {
		rd.firstErr = fmt.Errorf(format, args...)
	}
}

// tally folds the connections' counts into the round, their CRCs into
// seen, and checks what only the whole round can: that connections agree,
// and that acknowledged commit versions are exactly 1..N, none lost and
// none twice.
func (rd *round) tally(conns []*connRun, seen crcs) {
	for _, cn := range conns {
		rd.attempted += cn.attempted
		rd.failed += cn.failed
		rd.ops += cn.ops
		rd.commits += cn.commits
		rd.qMs = append(rd.qMs, cn.qMs...)
		rd.cMs = append(rd.cMs, cn.cMs...)
		rd.relocated += cn.relocated
		rd.versions = append(rd.versions, cn.versions...)
		if rd.firstErr == nil {
			rd.firstErr = cn.firstErr
		}
		for stmt, crc := range cn.seen {
			if prev, ok := seen[stmt]; !ok {
				seen[stmt] = crc
			} else if prev != crc {
				rd.miss("%s: two connections rendered it differently", stmt)
			}
		}
	}
	sort.Slice(rd.versions, func(i, j int) bool { return rd.versions[i] < rd.versions[j] })
	for i, v := range rd.versions {
		if v != uint64(i+1) {
			rd.miss("acknowledged commit versions are not 1..%d: position %d holds v%d", len(rd.versions), i+1, v)
			break
		}
	}
}

var replayedRE = regexp.MustCompile(`wal replayed (\d+) commits`)

// recoverCheck reboots a daemon on the directory a killed one left behind
// and checks that every acknowledged commit survived and the database
// still answers.
func (r *runner) recoverCheck(w workload, idx int, args []string, rd *round) error {
	logPath := filepath.Join(r.out, fmt.Sprintf("daemon-%s-r%d-recover.log", w.name, idx))
	d, err := r.sup.start(r.bin, args, logPath)
	if err != nil {
		return err
	}
	defer d.stop()
	c, err := d.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		return err
	}
	rd.recoverS = time.Since(d.spawned).Seconds()
	miss := func(format string, args ...any) { rd.miss("after kill -9: "+format, args...) }
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if st.HeadVersion < int64(len(rd.versions)) {
		miss("head v%d is behind the %d acknowledged commits", st.HeadVersion, len(rd.versions))
	}
	probes := []string{
		fmt.Sprintf(rowsStmt, 60),
		fmt.Sprintf(joinStmt, 100, 10),
		"select count(*) from pa in Patients",
	}
	for i, stmt := range probes {
		rd.attempted++
		res, err := c.Query(stmt, client.QueryOptions{MaxRows: maxRows})
		switch {
		case err != nil:
			miss("%s: %v", stmt, err)
		case i == 2 && res.Rows != int64(r.sc.patients()):
			miss("%s counted %d, want %d", stmt, res.Rows, r.sc.patients())
		}
	}
	b, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	if m := replayedRE.FindSubmatch(b); m != nil {
		rd.recoverCommits, _ = strconv.Atoi(string(m[1])) // the pattern admits digits only
	} else {
		miss("daemon log does not report its WAL replay")
	}
	return nil
}

// oracle executes every distinct statement once in the benchmark's own
// process and compares the rendering's CRC with what the daemons answered
// — the repository's byte-identity invariant. It returns the number of
// statements that differ and the first of them.
func (r *runner) oracle(seen crcs) (int, error) {
	sess := forkSession(r.prep.mem)
	stmts := make([]string, 0, len(seen))
	for s := range seen {
		stmts = append(stmts, s)
	}
	sort.Strings(stmts)
	var buf bytes.Buffer
	bad := 0
	var first error
	for _, stmt := range stmts {
		res, err := sess.Execute(stmt)
		if err == nil {
			if renderCRC(&buf, session.ToWire(res, maxRows)) == seen[stmt] {
				continue
			}
			err = fmt.Errorf("remote and local renderings differ")
		}
		bad++
		if first == nil {
			first = fmt.Errorf("oracle: %s: %w", stmt, err)
		}
	}
	return bad, first
}

// rounds is how many times one run boots and measures. The window is
// split between them: each boot is one sample of setup_s, and a median
// over rounds shrugs off a disturbance that hits one of them.
const rounds = 3

// measured is the outcome of one workload's daemon rounds.
type measured struct {
	qMs, cMs  []float64 // the rounds' query and commit latencies, pooled and sorted
	rounds    []*round
	attempted int
	failed    int
	firstErr  error
	distinct  int     // statements the oracle re-executed
	slowdown  float64 // the box against the calibration reference during the run
}

// measure runs n rounds of w sharing seconds of window between them, then
// the correctness oracle.
func (r *runner) measure(w workload, seed int64, seconds float64, n int) (*measured, error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	streams := make([]*opStream, w.conns)
	for i := range streams {
		streams[i] = newStream(w, r.sc, seed, i)
	}
	var seen crcs
	if w.commitShare == 0 {
		seen = make(crcs)
	}
	m := &measured{}
	window := time.Duration(seconds / float64(n) * float64(time.Second))
	for i := 0; i < n; i++ {
		crash := w.commitShare > 0 && i == n-1
		rd, err := r.runRound(w, i, streams, window, seen, crash)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		m.rounds = append(m.rounds, rd)
		m.attempted += rd.attempted
		m.failed += rd.failed
		if m.firstErr == nil {
			m.firstErr = rd.firstErr
		}
		r.logf("%s round %d: setup %.2fs, %d ops in %.2fs", w.name, i, rd.setupS, rd.ops, rd.wallS)
	}
	for _, rd := range m.rounds {
		m.qMs = append(m.qMs, rd.qMs...)
		m.cMs = append(m.cMs, rd.cMs...)
	}
	sort.Float64s(m.qMs)
	sort.Float64s(m.cMs)
	m.slowdown = r.cal.slowdown()
	r.logf("%s: the box ran the reference loop at %.2fx its reference time", w.name, m.slowdown)
	if seen != nil {
		bad, err := r.oracle(seen)
		m.distinct = len(seen)
		m.failed += bad
		if m.firstErr == nil {
			m.firstErr = err
		}
	}
	return m, nil
}

// over collects one value per round.
func (m *measured) over(f func(*round) float64) []float64 {
	v := make([]float64, len(m.rounds))
	for i, rd := range m.rounds {
		v[i] = f(rd)
	}
	return v
}

// endToEnd computes the untraced metrics: latencies pooled over the
// rounds, everything else the median of the rounds' own values. Timings
// are on the calibrated clock (see calibrate.go).
func (m *measured) endToEnd() map[string]float64 { return m.endToEndAt(m.slowdown) }

// endToEndAt computes the end-to-end metrics with timings divided by slow;
// 1 gives the wall clock.
func (m *measured) endToEndAt(slow float64) map[string]float64 {
	rounds := func(f func(*round) float64) float64 { return median(m.over(f)) }
	return map[string]float64{
		"setup_s":                rounds(func(rd *round) float64 { return rd.setupS }) / slow,
		"ops_per_s":              rounds(func(rd *round) float64 { return float64(rd.ops) / rd.wallS }) * slow,
		"query_p50_ms":           percentile(m.qMs, 50) / slow,
		"query_p95_ms":           percentile(m.qMs, 95) / slow,
		"server_cpu_ms_per_op":   rounds(func(rd *round) float64 { return rd.cpuMs / float64(rd.ops) }) / slow,
		"server_allocs_per_op":   rounds(func(rd *round) float64 { return rd.mallocs / float64(rd.ops) }),
		"server_alloc_kb_per_op": rounds(func(rd *round) float64 { return rd.allocKB / float64(rd.ops) }),
		"server_rss_mb":          rounds(func(rd *round) float64 { return rd.rssMB }),
	}
}
