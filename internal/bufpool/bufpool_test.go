package bufpool

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource serves deterministic page content and counts backing reads:
// reads is pages served one at a time, windowReads is ReadPages calls.
// fail names a page that errors on both paths (-1 for none); failWindows
// makes every ReadPages call fail and leaves ReadPage alone. A non-nil
// gate holds every ReadPages call until it is closed.
type fakeSource struct {
	pages       int
	reads       atomic.Int64
	windowReads atomic.Int64
	fail        atomic.Int32
	failWindows atomic.Bool
	gate        chan struct{}
}

func newFakeSource(pages int) *fakeSource {
	s := &fakeSource{pages: pages}
	s.fail.Store(-1)
	return s
}

func fill(dst []byte, page int) {
	binary.LittleEndian.PutUint64(dst, uint64(page)*0x1234567+1)
	for i := 8; i < len(dst); i++ {
		dst[i] = byte(page + i)
	}
}

func (s *fakeSource) ReadPage(i int, dst []byte) error {
	if int32(i) == s.fail.Load() {
		return fmt.Errorf("fake: page %d failed", i)
	}
	s.reads.Add(1)
	fill(dst, i)
	return nil
}

func (s *fakeSource) ReadPages(lo int, bufs [][]byte) error {
	if s.gate != nil {
		<-s.gate
	}
	if f := int(s.fail.Load()); s.failWindows.Load() || (lo <= f && f < lo+len(bufs)) {
		return fmt.Errorf("fake: window [%d,%d) failed", lo, lo+len(bufs))
	}
	s.windowReads.Add(1)
	for i, b := range bufs {
		fill(b, lo+i)
	}
	return nil
}

func resident(h *Handle, page int) bool {
	_, ok := h.Resident(page)
	return ok
}

func wantPage(t *testing.T, buf []byte, page int) {
	t.Helper()
	want := make([]byte, len(buf))
	fill(want, page)
	if !bytes.Equal(buf, want) {
		t.Fatalf("page %d content mismatch", page)
	}
}

func TestGetHitMiss(t *testing.T) {
	src := newFakeSource(10)
	p := New(0, 4096, 0)
	h := p.Register(src, 10)
	for i := 0; i < 10; i++ {
		buf, err := h.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		wantPage(t, buf, i)
	}
	if got := src.reads.Load(); got != 10 {
		t.Fatalf("backing reads = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := h.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.reads.Load(); got != 10 {
		t.Fatalf("warm re-read hit backing store: reads = %d, want 10", got)
	}
	st := p.Stats()
	if st.Hits != 10 || st.Misses != 10 || st.ResidentPages != 10 {
		t.Fatalf("stats = %+v, want 10 hits / 10 misses / 10 resident", st)
	}
	if _, err := h.Get(10); err == nil {
		t.Fatal("out-of-range Get succeeded")
	}
	if _, err := h.Get(-1); err == nil {
		t.Fatal("negative Get succeeded")
	}
}

// TestAdoptResidentDrop: Adopt admits a page without a source read and
// is a no-op over a resident page; Resident peeks without a hit, a
// reference bit or a streak step; Drop empties the handle, and the next
// Get faults the page in again.
func TestAdoptResidentDrop(t *testing.T) {
	src := newFakeSource(16)
	p := New(0, 4096, 32)
	h := p.Register(src, 16)
	buf := make([]byte, 4096)
	fill(buf, 3)
	h.Adopt(3, buf)
	h.Adopt(3, make([]byte, 4096)) // resident: the first frame stays
	h.Adopt(16, buf)               // out of range
	if got, ok := h.Resident(3); !ok || &got[0] != &buf[0] {
		t.Fatal("Resident does not return the adopted buffer")
	}
	if resident(h, 4) || resident(h, 16) || resident(h, -1) {
		t.Fatal("Resident reports a page nobody read or adopted")
	}
	if h.table[3].Load().ref.Load() || h.raLast.Load() != -2 {
		t.Fatal("Resident touched the reference bit or the streak cursor")
	}
	st := p.Stats()
	if st.Adopted != 1 || st.ResidentPages != 1 || st.Hits != 0 || st.Misses != 0 || src.reads.Load() != 0 {
		t.Fatalf("after one adoption: %+v, %d source reads", st, src.reads.Load())
	}
	if got, err := h.Get(3); err != nil || &got[0] != &buf[0] {
		t.Fatalf("Get of an adopted page: %v", err)
	}
	if st := p.Stats(); st.Hits != 1 || src.reads.Load() != 0 {
		t.Fatalf("Get of an adopted page was not a hit: %+v", st)
	}

	h.Drop()
	if st := p.Stats(); st.Dropped != 1 || st.ResidentPages != 0 || resident(h, 3) {
		t.Fatalf("after Drop: %+v", st)
	}
	got, err := h.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	wantPage(t, got, 3)
	if src.reads.Load() != 1 {
		t.Fatalf("Get after Drop read the source %d times, want 1", src.reads.Load())
	}
}

func TestReadError(t *testing.T) {
	src := newFakeSource(4)
	src.fail.Store(2)
	p := New(0, 4096, 0)
	h := p.Register(src, 4)
	if _, err := h.Get(2); err == nil {
		t.Fatal("Get of failing page succeeded")
	}
	if st := p.Stats(); st.ResidentPages != 0 {
		t.Fatalf("failed read left %d resident frames", st.ResidentPages)
	}
	src.fail.Store(-1)
	buf, err := h.Get(2)
	if err != nil {
		t.Fatalf("Get after transient error: %v", err)
	}
	wantPage(t, buf, 2)
}

// TestScanResistance pins the 2Q property the pool exists for: a hot set
// touched twice survives a cold sequential sweep much larger than the
// pool.
func TestScanResistance(t *testing.T) {
	const numPages = 4096
	src := newFakeSource(numPages)
	// 16 shards × minShardFrames(8) = 128 frames minimum pool.
	p := New(128*4096, 4096, 0)
	h := p.Register(src, numPages)

	// Establish a hot set: touch twice so every page reaches protected.
	hot := []int{0, 7, 19, 100, 256, 511}
	for pass := 0; pass < 2; pass++ {
		for _, pg := range hot {
			if _, err := h.Get(pg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Cold streaming sweep over everything else, once each.
	for pg := 600; pg < numPages; pg++ {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	reads := src.reads.Load()
	for _, pg := range hot {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.reads.Load(); got != reads {
		t.Fatalf("cold sweep evicted %d hot pages (plain LRU would evict all)", got-reads)
	}
	if st := p.Stats(); st.Evictions == 0 {
		t.Fatal("sweep caused no evictions — pool not under pressure, test is vacuous")
	}
}

func TestCapacityBounded(t *testing.T) {
	const numPages = 8192
	src := newFakeSource(numPages)
	p := New(128*4096, 4096, 0)
	h := p.Register(src, numPages)
	for pg := 0; pg < numPages; pg++ {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.CapacityPages == 0 {
		t.Fatal("bounded pool reports unbounded capacity")
	}
	if st.ResidentPages > st.CapacityPages {
		t.Fatalf("resident %d exceeds capacity %d", st.ResidentPages, st.CapacityPages)
	}
	if st.Evictions == 0 {
		t.Fatal("full sweep over 64× capacity caused no evictions")
	}
}

func TestReadaheadSequential(t *testing.T) {
	const numPages = 1024
	src := newFakeSource(numPages)
	p := New(0, 4096, 32)
	h := p.Register(src, numPages)

	// Walk far enough to establish a streak (seqThreshold, 8). The miss
	// that completes the streak faults its whole window in one ReadPages
	// call (batched demand fault), so [7, 39) is resident when Get returns.
	for pg := 0; pg <= 7; pg++ {
		buf, err := h.Get(pg)
		if err != nil {
			t.Fatal(err)
		}
		wantPage(t, buf, pg)
	}
	if !resident(h, 20) || !resident(h, 34) {
		t.Fatal("batched demand fault did not land the readahead window")
	}
	st := p.Stats()
	if st.ReadaheadIssued == 0 {
		t.Fatal("sequential scan triggered no readahead")
	}
	if src.windowReads.Load() == 0 {
		t.Fatal("the window was not read with ReadPages")
	}
	// Resume the scan: the prefetched window must serve as pool hits.
	for pg := 8; pg < 35; pg++ {
		buf, err := h.Get(pg)
		if err != nil {
			t.Fatal(err)
		}
		wantPage(t, buf, pg)
	}
	st = p.Stats()
	if st.ReadaheadUsed == 0 {
		t.Fatal("no prefetched page was consumed")
	}
	if st.Hits == 0 {
		t.Fatal("scan with readahead produced zero pool hits")
	}
	// Finish the file: every later window must batch too.
	for pg := 35; pg < numPages; pg++ {
		buf, err := h.Get(pg)
		if err != nil {
			t.Fatal(err)
		}
		wantPage(t, buf, pg)
	}
	if st := p.Stats(); st.Misses >= numPages/4 {
		t.Fatalf("sequential scan with readahead still missed %d of %d pages", st.Misses, numPages)
	}
}

// TestWindowReadFailure: a window read is an optimisation, so its failure
// may cost the readahead and nothing else. The reader that missed still
// gets its page if the page itself is readable, no tail page is admitted
// from a failed window, and when the page is unreadable too every reader
// sharing the fault sees the error and the next Get starts from scratch.
func TestWindowReadFailure(t *testing.T) {
	const demand = seqThreshold - 1 // the first sequential miss that reads a window
	for _, tc := range []struct {
		name        string
		fail        int32 // page whose ReadPage fails, and every window over it
		failWindows bool
		readers     int
		wantErr     bool
		heal        bool // then clear the failure and Get again
	}{
		{name: "window fails, page is read alone", fail: -1, failWindows: true, readers: 1},
		{name: "both fail, every waiter gets the error", fail: demand, readers: 8, wantErr: true},
		{name: "transient failure then success", fail: demand, readers: 1, wantErr: true, heal: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newFakeSource(64)
			p := New(0, 4096, 32)
			h := p.Register(src, 64)
			for pg := 0; pg < demand; pg++ {
				if _, err := h.Get(pg); err != nil {
					t.Fatal(err)
				}
			}
			src.fail.Store(tc.fail)
			src.failWindows.Store(tc.failWindows)
			src.gate = make(chan struct{})
			errs := make(chan error, tc.readers)
			for g := 0; g < tc.readers; g++ {
				go func() {
					buf, err := h.Get(demand)
					if err == nil && binary.LittleEndian.Uint64(buf) != demand*0x1234567+1 {
						err = fmt.Errorf("page %d content mismatch", demand)
					}
					errs <- err
				}()
			}
			time.Sleep(10 * time.Millisecond) // let the others queue behind the faulter
			close(src.gate)
			for g := 0; g < tc.readers; g++ {
				if err := <-errs; (err != nil) != tc.wantErr {
					t.Fatalf("reader %d: err = %v, want error %v", g, err, tc.wantErr)
				}
			}
			st := p.Stats()
			if resident(h, demand+1) || st.ReadaheadIssued != 0 || src.windowReads.Load() != 0 {
				t.Fatalf("a failed window admitted its tail: %+v", st)
			}
			wantResident := int64(demand + 1)
			if tc.wantErr {
				wantResident = demand
			}
			if st.ResidentPages != wantResident || resident(h, demand) == tc.wantErr {
				t.Fatalf("%d frames resident, want %d (the demand page only if it was read)", st.ResidentPages, wantResident)
			}
			if !tc.heal {
				return
			}
			src.fail.Store(-1)
			buf, err := h.Get(demand)
			if err != nil {
				t.Fatalf("Get after transient error: %v", err)
			}
			wantPage(t, buf, demand)
			if st := p.Stats(); !resident(h, demand+31) || st.ReadaheadIssued != 31 || src.windowReads.Load() != 1 {
				t.Fatalf("healed source did not read its window: %+v", st)
			}
		})
	}
}

// TestSequentialScanStartsNoGoroutine: the reader that misses does the
// readahead, at any GOMAXPROCS — a full sweep leaves nothing running.
func TestSequentialScanStartsNoGoroutine(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	const numPages = 4096
	p := New(0, 4096, 32)
	h := p.Register(newFakeSource(numPages), numPages)
	before := runtime.NumGoroutine()
	for pg := 0; pg < numPages; pg++ {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("a sequential sweep left %d goroutines running, %d before it", got, before)
	}
	if st := p.Stats(); st.ReadaheadIssued == 0 {
		t.Fatal("the sweep used no readahead — test is vacuous")
	}
}

func TestReadaheadDisabled(t *testing.T) {
	src := newFakeSource(256)
	p := New(0, 4096, 0)
	h := p.Register(src, 256)
	for pg := 0; pg < 256; pg++ {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if st := p.Stats(); st.ReadaheadIssued != 0 {
		t.Fatalf("readahead=0 still prefetched %d pages", st.ReadaheadIssued)
	}
}

func TestRandomAccessNoReadahead(t *testing.T) {
	src := newFakeSource(1024)
	p := New(0, 4096, 32)
	h := p.Register(src, 1024)
	// Strided access never forms a streak of seqThreshold.
	for i := 0; i < 300; i++ {
		if _, err := h.Get((i * 37) % 1024); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if st := p.Stats(); st.ReadaheadIssued != 0 {
		t.Fatalf("random access triggered %d prefetches", st.ReadaheadIssued)
	}
}

// TestConcurrentSharedHandle hammers one handle from many goroutines
// mixing scans and point reads; run under -race this is the pool's core
// concurrency oracle.
func TestConcurrentSharedHandle(t *testing.T) {
	const numPages = 2048
	src := newFakeSource(numPages)
	p := New(256*4096, 4096, 16)
	h := p.Register(src, numPages)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 { // scanner
				for pg := 0; pg < numPages; pg++ {
					buf, err := h.Get(pg)
					if err != nil {
						errs <- err
						return
					}
					if binary.LittleEndian.Uint64(buf) != uint64(pg)*0x1234567+1 {
						errs <- fmt.Errorf("goroutine %d: page %d corrupt", g, pg)
						return
					}
				}
			} else { // point reader
				for i := 0; i < numPages; i++ {
					pg := (i*131 + g*17) % numPages
					buf, err := h.Get(pg)
					if err != nil {
						errs <- err
						return
					}
					if binary.LittleEndian.Uint64(buf) != uint64(pg)*0x1234567+1 {
						errs <- fmt.Errorf("goroutine %d: page %d corrupt", g, pg)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentFaultDedupe verifies concurrent cold faults of the same
// page share one backing read.
func TestConcurrentFaultDedupe(t *testing.T) {
	src := newFakeSource(1)
	p := New(0, 4096, 0)
	h := p.Register(src, 1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := h.Get(0); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := src.reads.Load(); got != 1 {
		t.Fatalf("32 concurrent faulters issued %d backing reads, want 1", got)
	}
}

// failingSource counts every ReadPage and fails each one, after the
// gate is closed.
type failingSource struct {
	reads atomic.Int64
	gate  chan struct{}
}

func (s *failingSource) ReadPage(i int, dst []byte) error {
	s.reads.Add(1)
	<-s.gate
	return fmt.Errorf("failing: page %d", i)
}

func (s *failingSource) ReadPages(lo int, bufs [][]byte) error { return s.ReadPage(lo, bufs[0]) }

// TestWaiterSharesReadError pins that a reader waiting on a page in
// flight gets the faulter's result, its error included, and issues no
// read of its own — the waiter, not the faulter, makes the record they
// share.
func TestWaiterSharesReadError(t *testing.T) {
	src := &failingSource{gate: make(chan struct{})}
	p := New(0, 4096, 0)
	h := p.Register(src, 1)
	errs := make(chan error, 2)
	get := func() {
		_, err := h.Get(0)
		errs <- err
	}
	go get()
	for src.reads.Load() == 0 { // the faulter is in its read
		runtime.Gosched()
	}
	go get()
	sh := p.shardFor(key{h.id, 0})
	for waiting := false; !waiting; runtime.Gosched() {
		sh.mu.Lock()
		waiting = sh.inflight[key{h.id, 0}] != nil
		sh.mu.Unlock()
	}
	close(src.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a Get of the failing page succeeded")
		}
	}
	if got := src.reads.Load(); got != 1 {
		t.Fatalf("a faulter and a waiter issued %d reads, want 1", got)
	}
	if _, ok := sh.inflight[key{h.id, 0}]; ok {
		t.Fatal("the failed read left its in-flight entry")
	}
}

func TestSetupActive(t *testing.T) {
	t.Cleanup(func() { Setup(DefaultCapacityMB, DefaultReadahead) })
	Setup(8, 4)
	p := Active()
	if p.readahead != 4 {
		t.Fatalf("readahead = %d, want 4", p.readahead)
	}
	if st := p.Stats(); st.CapacityPages != 8<<20/4096 {
		t.Fatalf("8MB pool holds %d pages", st.CapacityPages)
	}
	Setup(16, 8)
	if q := Active(); q == p || q.readahead != 8 {
		t.Fatal("a second Setup did not replace the pool")
	}
}
