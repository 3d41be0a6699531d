package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"treebench/internal/client"
)

// supervisor owns every daemon the benchmark starts, so that each exit
// path — return, error, signal, panic — can kill what is still running.
type supervisor struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

func newSupervisor() *supervisor { return &supervisor{live: make(map[*daemon]struct{})} }

// killAll kills every live daemon's process group and waits for each.
func (s *supervisor) killAll() {
	s.mu.Lock()
	ds := make([]*daemon, 0, len(s.live))
	for d := range s.live {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one spawned treebenchd.
type daemon struct {
	sup     *supervisor
	cmd     *exec.Cmd
	addr    string
	pprof   string
	logPath string
	spawned time.Time
	exited  chan struct{} // closed once Wait returned
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start spawns bin with args plus a fresh -addr and -pprof, in its own
// process group, logging to logPath. It inherits the environment, which
// main has cleared of TREEBENCH_* variables.
func (s *supervisor) start(bin string, args []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	pport, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		sup:     s,
		addr:    fmt.Sprintf("127.0.0.1:%d", port),
		pprof:   fmt.Sprintf("127.0.0.1:%d", pport),
		logPath: logPath,
		exited:  make(chan struct{}),
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", d.addr, "-pprof", d.pprof}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.live[d] = struct{}{}
	s.mu.Unlock()
	go func() {
		d.cmd.Wait() // the exit status is irrelevant: daemons are stopped by signal
		close(d.exited)
	}()
	return d, nil
}

// dial connects to the daemon, retrying until it serves or has exited.
func (d *daemon) dial() (*client.Client, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := client.Dial(d.addr, client.Options{IOTimeout: 60 * time.Second})
		if err == nil {
			return c, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("treebenchd exited before serving: %s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("treebenchd not serving after 60s: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath) // best effort: the tail only decorates an error
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

func (d *daemon) signal(sig syscall.Signal) {
	// The negative pid addresses the whole process group.
	syscall.Kill(-d.cmd.Process.Pid, sig)
}

func (d *daemon) reaped() {
	d.sup.mu.Lock()
	delete(d.sup.live, d)
	d.sup.mu.Unlock()
}

// stop drains the daemon with SIGTERM, falling back to SIGKILL, and
// returns once it has exited.
func (d *daemon) stop() {
	d.signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.signal(syscall.SIGKILL)
		<-d.exited
	}
	d.reaped()
}

// kill is kill -9: the daemon gets no chance to flush or close anything.
func (d *daemon) kill() {
	d.signal(syscall.SIGKILL)
	<-d.exited
	d.reaped()
}

// cpuMs is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks, 100 per second on Linux).
func (d *daemon) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPUMs(string(b))
}

func parseProcStatCPUMs(stat string) (float64, error) {
	// Fields are counted after the parenthesised command name, which may
	// itself contain spaces; utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times in %q", stat)
	}
	const msPerTick = 10
	return (ut + st) * msPerTick, nil
}

// peakRSSMB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// heapStats is the part of runtime.MemStats the benchmark reads from the
// daemon's /debug/pprof/heap?debug=1 page.
type heapStats struct {
	mallocs, totalAlloc, numGC float64
}

func (d *daemon) heap() (heapStats, error) {
	resp, err := http.Get("http://" + d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return heapStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return heapStats{}, fmt.Errorf("pprof heap: %s", resp.Status)
	}
	return parseHeapStats(resp.Body)
}

// parseHeapStats reads the "# Name = value" MemStats trailer of a
// debug=1 heap profile.
func parseHeapStats(r io.Reader) (heapStats, error) {
	var h heapStats
	want := map[string]*float64{"Mallocs": &h.mallocs, "TotalAlloc": &h.totalAlloc, "NumGC": &h.numGC}
	found := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("# ")) {
			continue
		}
		name, val, ok := strings.Cut(string(line[2:]), " = ")
		if dst := want[name]; ok && dst != nil {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return h, fmt.Errorf("pprof heap: %s = %q", name, val)
			}
			*dst = v
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if found != len(want) {
		return h, fmt.Errorf("pprof heap: found %d of %d MemStats fields", found, len(want))
	}
	return h, nil
}
