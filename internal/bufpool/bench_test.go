package bufpool

import (
	"math/rand"
	"testing"
)

// The pool's layer benchmarks (make bench-pool): what a session's Get
// costs when the page is resident — the whole cost of a warm-booted
// daemon's storage layer — and what it costs when it is not, for a reader
// that never quiesces (every miss allocates its frame and page) and for
// one that quiesces between Gets (a miss reuses an evicted frame). The
// source only stamps the page, so a miss measures the pool's own fault,
// admit, evict and reuse work, not a disk.

const benchPages = 8192 // the size of the live benchmark's image, about

var benchSink []byte

// benchOrder is a fixed random page order: the navigation of a tree join,
// which is where a hit's cost is paid, has no sequential runs.
func benchOrder() []int {
	rng := rand.New(rand.NewSource(1997))
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = rng.Intn(benchPages)
	}
	return order
}

func residentHandle(b *testing.B) *Handle {
	p := New(0, 4096, DefaultReadahead)
	h := p.Register(stampSource{4096}, benchPages)
	for pg := 0; pg < benchPages; pg++ {
		if _, err := h.Get(pg); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func BenchmarkGetHit(b *testing.B) {
	h, order := residentHandle(b), benchOrder()
	r := NewReader()
	defer r.Offline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = h.GetAs(r, order[i&(len(order)-1)])
	}
}

// BenchmarkGetHitParallel is the shape of intra-query parallelism: every
// worker reads random pages through the one handle of the snapshot file.
func BenchmarkGetHitParallel(b *testing.B) {
	h, order := residentHandle(b), benchOrder()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := NewReader()
		defer r.Offline()
		var buf []byte
		for i := rand.Intn(len(order)); pb.Next(); i++ {
			buf, _ = h.GetAs(r, order[i&(len(order)-1)])
		}
		_ = buf
	})
}

// BenchmarkGetMiss walks a file 64 times the pool with a stride that
// defeats readahead, so every Get faults, admits and evicts, for a reader
// that never quiesces: no evicted frame is reused.
func BenchmarkGetMiss(b *testing.B) { benchMiss(b, false) }

// BenchmarkGetMissRecycled is BenchmarkGetMiss for a reader that quiesces
// after every Get: in the steady state each miss reads into an evicted
// frame's buffer and allocates nothing.
func BenchmarkGetMissRecycled(b *testing.B) { benchMiss(b, true) }

func benchMiss(b *testing.B, quiesce bool) {
	p := New(128*4096, 4096, DefaultReadahead)
	h := p.Register(stampSource{4096}, benchPages)
	r := NewReader()
	defer r.Offline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = h.GetAs(r, i*37%benchPages)
		if quiesce {
			r.Quiesce()
		}
	}
	b.StopTimer()
	if st := p.Stats(); st.Hits != 0 {
		b.Fatalf("%d of %d Gets hit", st.Hits, b.N)
	}
}
