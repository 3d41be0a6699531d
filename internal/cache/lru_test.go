package cache

import (
	"math/rand"
	"testing"

	"treebench/internal/sim"
	"treebench/internal/storage"
)

// coldScan reads every page through cli and then cold-restarts both
// levels: one measured query's worth of residency bookkeeping.
func coldScan(tb testing.TB, cli *Client, ids []storage.PageID) {
	for _, id := range ids {
		if _, err := cli.Read(id); err != nil {
			tb.Fatal(err)
		}
	}
	cli.Shutdown()
}

// TestPageLRUSteadyStateAllocatesNothing is the allocation budget of the
// simulated caches: once a stack has seen its working set, filling both
// levels past capacity (the server holds a quarter of the pages, the
// client half, so both evict), draining them and filling them again
// allocates nothing — no node, no entry, no drain slice, no map growth.
func TestPageLRUSteadyStateAllocatesNothing(t *testing.T) {
	const pages = 512
	_, _, _, cli := newStack(t, pages/4*storage.PageSize, pages/2*storage.PageSize)
	ids := allocPages(t, cli, pages)
	coldScan(t, cli, ids) // grow slabs and indexes once
	if got := testing.AllocsPerRun(20, func() { coldScan(t, cli, ids) }); got != 0 {
		t.Fatalf("a cold scan of a warmed-up stack allocated %v objects, want 0", got)
	}
}

// TestPageLRUMatchesReference replays seeded traces of the operations the
// page caches perform — touch a resident page, dirty it in place, admit a
// missing one (clean or dirty), flush, drain — against the pointer-linked
// LRU this one replaced: every hit/miss, every evicted (page, dirty) pair
// and the drain's write-back order must be identical.
func TestPageLRUMatchesReference(t *testing.T) {
	type ev struct {
		id    storage.PageID
		dirty bool
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(40)
		got, want := NewLRU[storage.PageID, bool](capacity), newRefLRU(capacity)
		var gotEv, wantEv []ev
		drain := func() {
			got.Drain(func(id storage.PageID, d *bool) { gotEv = append(gotEv, ev{id, *d}) })
			for _, e := range want.drain() {
				wantEv = append(wantEv, ev{e.id, e.dirty})
			}
		}
		for step := 0; step < 20000; step++ {
			id := storage.PageID(r.Intn(3 * capacity))
			switch op := r.Intn(100); {
			case op < 60: // read: hit touches recency, miss admits clean
				_, hit := got.Get(id)
				if ref := want.get(id); hit != (ref != nil) {
					t.Fatalf("seed %d step %d: page %d hit=%v, reference %v", seed, step, id, hit, ref != nil)
				}
				if !hit {
					if k, d, ok := got.Put(id, false); ok {
						gotEv = append(gotEv, ev{k, d})
					}
					if e := want.put(id, false); e != nil {
						wantEv = append(wantEv, ev{e.id, e.dirty})
					}
				}
			case op < 90: // write: dirty in place without touching, or admit dirty
				d, ref := got.Peek(id), want.peek(id)
				if (d != nil) != (ref != nil) {
					t.Fatalf("seed %d step %d: page %d resident=%v, reference %v", seed, step, id, d != nil, ref != nil)
				}
				if d != nil {
					*d, ref.dirty = true, true
					continue
				}
				if k, d, ok := got.Put(id, true); ok {
					gotEv = append(gotEv, ev{k, d})
				}
				if e := want.put(id, true); e != nil {
					wantEv = append(wantEv, ev{e.id, e.dirty})
				}
			case op < 99: // flush: LRU-first visit that cleans in place
				got.Each(func(id storage.PageID, d *bool) { gotEv = append(gotEv, ev{id, *d}); *d = false })
				want.each(func(e *refEntry) { wantEv = append(wantEv, ev{e.id, e.dirty}); e.dirty = false })
			default:
				drain()
			}
			if got.Len() != len(want.entries) {
				t.Fatalf("seed %d step %d: len %d, reference %d", seed, step, got.Len(), len(want.entries))
			}
		}
		drain()
		if len(gotEv) != len(wantEv) {
			t.Fatalf("seed %d: %d eviction/visit events, reference %d", seed, len(gotEv), len(wantEv))
		}
		for i := range gotEv {
			if gotEv[i] != wantEv[i] {
				t.Fatalf("seed %d: event %d is %+v, reference %+v", seed, i, gotEv[i], wantEv[i])
			}
		}
	}
}

// BenchmarkPageLRU prices the three things a measured query does to its
// simulated caches (make bench-exec): hit a resident page, miss with an
// eviction at both levels, and the cold-restart cycle — drain both levels,
// refill them from empty. All three must report 0 allocs/op.
func BenchmarkPageLRU(b *testing.B) {
	const pages = 8192 // one client cache's worth (32 MB)
	stack := func(b *testing.B, serverPages, clientPages int64) (*Client, []storage.PageID) {
		disk := storage.NewDisk(0)
		meter := sim.NewMeter(sim.DefaultCostModel())
		cli := NewClient(NewServer(disk, meter, serverPages*storage.PageSize), meter, clientPages*storage.PageSize)
		ids := make([]storage.PageID, pages)
		for i := range ids {
			id, _, err := disk.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		coldScan(b, cli, ids)
		return cli, ids
	}
	read := func(b *testing.B, cli *Client, ids []storage.PageID) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Read(ids[i%pages]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		cli, ids := stack(b, pages, pages)
		for _, id := range ids {
			cli.Read(id)
		}
		read(b, cli, ids)
	})
	b.Run("miss-evict", func(b *testing.B) {
		// A cyclic scan over more pages than either level holds misses
		// and evicts at both, every time.
		cli, ids := stack(b, pages/8, pages/2)
		read(b, cli, ids)
	})
	b.Run("drain-refill", func(b *testing.B) {
		// Per page: one cold restart + refill of the paper's geometry
		// (1 024-page server, 8 192-page client), divided by its pages.
		cli, ids := stack(b, pages/8, pages)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += pages {
			coldScan(b, cli, ids)
		}
	})
}
