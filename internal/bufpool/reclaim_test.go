package bufpool

import "testing"

// churn makes n scattered misses on h for reader r, quiescing after each,
// so that frames are evicted, retired and — once every online reader
// allows — reused.
func churn(t *testing.T, h *Handle, r *Reader, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := h.GetAs(r, i*37%h.numPages); err != nil {
			t.Fatal(err)
		}
		r.Quiesce()
	}
}

// retired counts the frames in the pool's retired lists.
func retired(p *Pool) int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.retired.n
		sh.mu.Unlock()
	}
	return n
}

// TestRecycleWaitsForHolder: a buffer stays its page's content, through
// any number of evictions and reuses by other readers, until the reader
// it was handed to quiesces; after that its frame is reused.
func TestRecycleWaitsForHolder(t *testing.T) {
	poisoned(t)
	const numPages = 4096
	p := New(256*4096, 4096, 0)
	h := p.Register(stampSource{4096}, numPages)
	holder, other := NewReader(), NewReader()
	defer holder.Offline()
	defer other.Offline()

	held := make([][]byte, 64)
	for i := range held {
		buf, err := h.GetAs(holder, i)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = buf
	}
	churn(t, h, other, 1, 4*numPages)
	for i, buf := range held {
		if stampOf(buf) != i {
			t.Fatalf("held buffer reused: %v", errStamp(i, buf))
		}
	}
	if st := p.Stats(); st.Recycled != 0 {
		t.Fatalf("stats = %+v: frames reused while an online reader could hold them", st)
	}
	if n, bound := retired(p), int(p.Stats().CapacityPages); n > bound {
		t.Fatalf("%d frames retired, bound %d", n, bound)
	}

	holder.Quiesce()
	churn(t, h, other, 1, 4*numPages)
	if st := p.Stats(); st.Recycled == 0 {
		t.Fatalf("stats = %+v: nothing reused once the holder quiesced", st)
	}
}

// TestUnnamedReadsPin: a buffer handed out by Get or Resident, which name
// no reader, is never reused, however long it is held and whatever
// quiescing readers do; neither is an adopted frame's.
func TestUnnamedReadsPin(t *testing.T) {
	poisoned(t)
	const numPages = 4096
	p := New(256*4096, 4096, 0)
	h := p.Register(stampSource{4096}, numPages)
	r := NewReader()
	defer r.Offline()

	got, err := h.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetAs(r, 200); err != nil {
		t.Fatal(err)
	}
	peeked, ok := h.Resident(200)
	if !ok {
		t.Fatal("page 200 not resident")
	}
	adopted := make([]byte, 4096)
	stampSource{}.ReadPage(300, adopted)
	h.Adopt(300, adopted)
	r.Quiesce()

	churn(t, h, r, 1, 8*numPages)
	if st := p.Stats(); st.Recycled == 0 {
		t.Fatalf("stats = %+v: the churn reused nothing, the test is vacuous", st)
	}
	for page, buf := range map[int][]byte{100: got, 200: peeked, 300: adopted} {
		if stampOf(buf) != page {
			t.Errorf("unnamed read reused: %v", errStamp(page, buf))
		}
	}
}

// TestReleasedReaderSlotReused: the slot of a reader that goes offline
// serves the next reader that goes online, so a daemon that forks sessions
// for ever scans a bounded set of slots.
func TestReleasedReaderSlotReused(t *testing.T) {
	r := NewReader()
	r.enter()
	slot := r.slot
	r.Offline()
	next := NewReader()
	next.enter()
	defer next.Offline()
	if next.slot != slot {
		t.Fatal("a released slot was not reused")
	}
}
