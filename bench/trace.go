package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req and
// nest under that request's root span ("req", Parent -1).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Mallocs and Bytes are the heap allocations made while the span was
	// open, children included. Only the memory pass fills them: reading
	// them stops the world, which would spoil the timings.
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

// tracer records spans in memory from the benchmark's own call sites; a
// tracer that is off costs one branch per call. It is used from one
// goroutine.
type tracer struct {
	on, mem bool
	t0      time.Time
	spans   []span
	open    []int
	req     int
	// sums and ns hold the counts recorded at span boundaries (bytes
	// encoded, …), so ratios are measured where the work happens.
	sums map[string]float64
	ns   map[string]int
}

// newTracer returns a recording tracer with room for capacity spans, so
// that growing the span slice never shows up as a layer's allocation.
func newTracer(mem bool, capacity int) *tracer {
	return &tracer{
		on: true, mem: mem, t0: time.Now(),
		spans: make([]span, 0, capacity),
		sums:  make(map[string]float64), ns: make(map[string]int),
	}
}

func (t *tracer) heap() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// begin opens a span under the innermost open one and returns its id
// (-1 when the tracer is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.req++
	}
	id := len(t.spans)
	s := span{Name: name, Req: t.req, ID: id, Parent: parent}
	if t.mem {
		s.Mallocs, s.Bytes = t.heap()
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if t.mem {
		m, b := t.heap()
		s.Mallocs, s.Bytes = m-s.Mallocs, b-s.Bytes
	}
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// count records one observation of a boundary count.
func (t *tracer) count(name string, v float64) {
	if t.on {
		t.sums[name] += v
		t.ns[name]++
	}
}

func (t *tracer) meanCount(name string) float64 {
	if t.ns[name] == 0 {
		return 0
	}
	return t.sums[name] / float64(t.ns[name])
}

// selfCost is a span's own share: its totals minus what its child spans
// cover.
type selfCost struct {
	ns, mallocs, bytes int64
}

// selfCosts returns every span's self cost, indexed like spans.
func selfCosts(spans []span) []selfCost {
	out := make([]selfCost, len(spans))
	for i, s := range spans {
		out[i].ns += s.End - s.Start
		out[i].mallocs += int64(s.Mallocs)
		out[i].bytes += int64(s.Bytes)
		if s.Parent >= 0 {
			out[s.Parent].ns -= s.End - s.Start
			out[s.Parent].mallocs -= int64(s.Mallocs)
			out[s.Parent].bytes -= int64(s.Bytes)
		}
	}
	return out
}

// selfSamples groups self costs by span name.
func selfSamples(spans []span) map[string][]selfCost {
	by := make(map[string][]selfCost)
	for i, c := range selfCosts(spans) {
		by[spans[i].Name] = append(by[spans[i].Name], c)
	}
	return by
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
