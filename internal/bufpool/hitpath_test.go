package bufpool

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stampSource stamps each page with its number and nothing else, so a
// backing read costs next to nothing and a reader can tell whose buffer
// it was handed.
type stampSource struct{ pageSize int }

func (s stampSource) ReadPage(i int, dst []byte) error {
	binary.LittleEndian.PutUint64(dst, uint64(i)+1)
	return nil
}

func (s stampSource) ReadPages(lo int, bufs [][]byte) error {
	for i, b := range bufs {
		binary.LittleEndian.PutUint64(b, uint64(lo+i)+1)
	}
	return nil
}

func stampOf(buf []byte) int { return int(binary.LittleEndian.Uint64(buf)) - 1 }

// scattered visits every page of [0, n) in an order with no two
// consecutive page numbers adjacent, so the sequential detector never
// sees a streak.
func scattered(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i * 37) % n
	}
	return out
}

// TestGetHitTakesNoLock holds every mutex the pool has and requires Get
// of a resident page to return anyway: the hit path is lock-free by
// construction.
func TestGetHitTakesNoLock(t *testing.T) {
	const numPages = 64
	p := New(0, 4096, 32) // readahead on: the detector runs on every Get
	h := p.Register(stampSource{4096}, numPages)
	order := scattered(numPages)
	for _, pg := range order {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}

	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	done := make(chan error, 1)
	go func() {
		for _, pg := range append(order, order[len(order)-1]) { // and one same-page re-read
			buf, err := h.Get(pg)
			if err == nil && stampOf(buf) != pg {
				err = errStamp(pg, buf)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Error("Get of a resident page blocked on a pool mutex")
	}
	for i := range p.shards {
		p.shards[i].mu.Unlock()
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != numPages+1 || st.Misses != numPages {
		t.Fatalf("stats = %+v, want %d hits / %d misses", st, numPages+1, numPages)
	}
}

func errStamp(page int, buf []byte) error {
	return fmt.Errorf("page %d returned the buffer of page %d", page, stampOf(buf))
}

func TestGetHitAllocatesNothing(t *testing.T) {
	const numPages = 256
	p := New(0, 4096, 32)
	h := p.Register(stampSource{4096}, numPages)
	order := scattered(numPages)
	for _, pg := range order {
		if _, err := h.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := h.Get(order[i%numPages]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Get of a resident page allocates %.1f objects, want 0", allocs)
	}
}

// TestGetMissAllocations pins what a miss allocates. A reader that never
// quiesces holds back the reuse of every frame evicted after it went
// online, so its misses allocate a frame and a page, and nothing more:
// the record concurrent faulters of one page share is made only when a
// second reader waits (TestConcurrentFaultDedupe), so a miss nobody
// races allocates no in-flight record and no channel. A reader that
// quiesces between misses gets each miss a retired frame and its buffer
// once the retired lists are warm, and allocates nothing. The walk
// defeats readahead and the pool is a sixteenth of the file, so every Get
// faults, admits and evicts.
func TestGetMissAllocations(t *testing.T) {
	const numPages = 4096
	for _, tc := range []struct {
		name    string
		quiesce bool
		max     float64
	}{
		{"reader that never quiesces", false, 2},
		{"quiescing reader, warm retired lists", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(numPages/16*4096, 4096, 32)
			h := p.Register(stampSource{4096}, numPages)
			r := NewReader()
			defer r.Offline()
			i := 0
			miss := func() {
				if _, err := h.GetAs(r, i*37%numPages); err != nil {
					t.Fatal(err)
				}
				i++
				if tc.quiesce {
					r.Quiesce()
				}
			}
			for j := 0; j < numPages/4; j++ {
				miss()
			}
			allocs := testing.AllocsPerRun(1000, miss)
			st := p.Stats()
			if st.Hits != 0 {
				t.Fatalf("%d Gets hit; the walk must miss every time", st.Hits)
			}
			if allocs > tc.max {
				t.Fatalf("a miss allocates %.1f objects, want at most %.0f", allocs, tc.max)
			}
			if tc.quiesce == (st.Recycled == 0) {
				t.Fatalf("stats = %+v: recycled %d frames", st, st.Recycled)
			}
		})
	}
}

// TestLockFreeHitsUnderEviction runs the lock-free hit path against
// everything that changes residency at once: four readers over a pool a
// sixteenth of the file, so nearly every frame a reader loads is being
// evicted, re-faulted, prefetched or reused by someone else, and reused
// frames are poisoned. Run under -race. Every buffer must be the page
// asked for until its reader quiesces, and the counters must add up.
func TestLockFreeHitsUnderEviction(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const (
		numPages = 4096
		frames   = 256
		readers  = 4
		perRead  = 20000
	)
	poisoned(t)
	p := New(frames*4096, 4096, 16)
	h := p.Register(stampSource{4096}, numPages)
	gets := readStamped(t, h, readers, perRead)

	st := p.Stats()
	if st.Hits+st.Misses != gets {
		t.Errorf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, gets)
	}
	checkBounds(t, p, h)
	if st.Hits == 0 || st.Evictions == 0 || st.ReadaheadIssued == 0 || st.Recycled == 0 {
		t.Errorf("stats = %+v: want hits, evictions, readahead and reuse all exercised", st)
	}
}

// TestDropUnderReaders runs Drop against every path that makes a page
// resident: four readers Get a stamped file through a bounded pool while
// another goroutine drops the handle over and over, and then Adopt races
// a fault of the same page. Run under -race, with reused frames
// poisoned. Every buffer must be the page asked for until its reader
// quiesces, the pool must stay within capacity, and an adopted page and a
// faulted one must end as exactly one frame.
func TestDropUnderReaders(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const numPages = 4096
	poisoned(t)
	p := New(256*4096, 4096, 16)
	h := p.Register(stampSource{4096}, numPages)

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				h.Drop()
			}
		}
	}()
	readStamped(t, h, 4, 20000)
	close(stop)
	<-stopped
	checkBounds(t, p, h)
	if st := p.Stats(); st.Dropped == 0 || st.ReadaheadIssued == 0 {
		t.Fatalf("stats = %+v: want drops and readahead both exercised", st)
	}

	h.Drop()
	if st := p.Stats(); st.ResidentPages != 0 {
		t.Fatalf("%d frames resident after Drop", st.ResidentPages)
	}
	const rounds = 500
	for round := 0; round < rounds; round++ {
		pg := round * 37 % numPages // no streak: a window would admit more than pg
		buf := make([]byte, 4096)
		stampSource{}.ReadPage(pg, buf)
		var wg sync.WaitGroup
		adopt := func() {
			defer wg.Done()
			h.Adopt(pg, buf)
		}
		get := func() {
			defer wg.Done()
			got, err := h.Get(pg)
			if err == nil && stampOf(got) != pg {
				err = errStamp(pg, got)
			}
			if err != nil {
				t.Errorf("Get racing Adopt: %v", err)
			}
		}
		// The goroutine started last tends to run first: alternate, so
		// each side wins some rounds.
		first, second := adopt, get
		if round%2 == 1 {
			first, second = get, adopt
		}
		wg.Add(2)
		go first()
		go second()
		wg.Wait()
		if st := p.Stats(); st.ResidentPages != 1 {
			t.Fatalf("round %d: Adopt racing a fault left %d frames", round, st.ResidentPages)
		}
		h.Drop()
	}
	if st := p.Stats(); st.Adopted == 0 {
		t.Fatalf("stats = %+v: no Adopt won a race, the test is vacuous", st)
	}
}

// readStamped starts readers goroutines that each make perRead Gets of
// h, which must read a stampSource, waits for them and returns how many
// Gets they made. Each reader mostly reads points over a hot eighth of
// the file plus the odd cold page, and now and then a run long enough to
// arm readahead. Each reader is a quiescing one: it checks every buffer
// when it gets it and again at the end of its run, and quiesces only
// then, so a frame reused while its reader may hold it shows.
func readStamped(t *testing.T, h *Handle, readers, perRead int) int64 {
	t.Helper()
	numPages := h.numPages
	var gets atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := NewReader()
			defer r.Offline()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			held := make([][]byte, 0, 48)
			for n := 0; n < perRead; {
				pg, run := rng.Intn(numPages/8), 1
				switch roll := rng.Intn(100); {
				case roll < 10:
					pg = rng.Intn(numPages)
				case roll < 12:
					pg, run = rng.Intn(numPages-64), 48
				}
				held = held[:0]
				for i := 0; i < run; i++ {
					buf, err := h.GetAs(r, pg+i)
					n++
					gets.Add(1)
					if err != nil {
						t.Error(err)
						return
					}
					if stampOf(buf) != pg+i {
						t.Error(errStamp(pg+i, buf))
						return
					}
					held = append(held, buf)
				}
				for i, buf := range held {
					if stampOf(buf) != pg+i {
						t.Errorf("held to the end of its run: %v", errStamp(pg+i, buf))
						return
					}
				}
				r.Quiesce()
			}
		}(g)
	}
	wg.Wait()
	return gets.Load()
}

// checkBounds checks what must hold once the pool is quiet: resident
// within capacity, readahead outcomes within issues, and the page table
// and the queues agreeing on what is resident.
func checkBounds(t *testing.T, p *Pool, h *Handle) {
	t.Helper()
	st := p.Stats()
	if st.ResidentPages > st.CapacityPages {
		t.Errorf("resident %d exceeds capacity %d", st.ResidentPages, st.CapacityPages)
	}
	if st.ReadaheadUsed+st.ReadaheadWasted > st.ReadaheadIssued {
		t.Errorf("readahead used %d + wasted %d exceeds issued %d", st.ReadaheadUsed, st.ReadaheadWasted, st.ReadaheadIssued)
	}
	// Compare under every shard mutex.
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	inTable, inQueues := 0, 0
	for i := range h.table {
		if h.table[i].Load() != nil {
			inTable++
		}
	}
	for i := range p.shards {
		inQueues += p.shards[i].resident()
		p.shards[i].mu.Unlock()
	}
	if inTable != inQueues {
		t.Errorf("page table holds %d frames, queues hold %d", inTable, inQueues)
	}
}
