package bufpool

import (
	"math/rand"
	"testing"
)

// The pool's two layer benchmarks (make bench-pool): what a Get costs
// when the page is resident — the whole cost of a warm-booted daemon's
// storage layer — and what it costs when it is not. The source only
// stamps the page, so a miss measures the pool's own fault, admit and
// evict work, not a disk.

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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = h.Get(order[i&(len(order)-1)])
	}
}

// BenchmarkGetHitParallel is the shape of intra-query parallelism: every
// worker reads random pages through the one handle of the snapshot file.
func BenchmarkGetHitParallel(b *testing.B) {
	h, order := residentHandle(b), benchOrder()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var buf []byte
		for i := rand.Intn(len(order)); pb.Next(); i++ {
			buf, _ = h.Get(order[i&(len(order)-1)])
		}
		_ = buf
	})
}

// BenchmarkGetMiss walks a file 64 times the pool with a stride that
// defeats readahead, so every Get faults, admits and evicts.
func BenchmarkGetMiss(b *testing.B) {
	p := New(128*4096, 4096, DefaultReadahead)
	h := p.Register(stampSource{4096}, benchPages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = h.Get(i * 37 % benchPages)
	}
	b.StopTimer()
	if st := p.Stats(); st.Hits != 0 {
		b.Fatalf("%d of %d Gets hit", st.Hits, b.N)
	}
}
