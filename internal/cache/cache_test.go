package cache

import (
	"testing"

	"treebench/internal/sim"
	"treebench/internal/storage"
)

func newStack(t *testing.T, serverBytes, clientBytes int64) (*storage.Disk, *sim.Meter, *Server, *Client) {
	t.Helper()
	disk := storage.NewDisk(0)
	meter := sim.NewMeter(sim.DefaultCostModel())
	srv := NewServer(disk, meter, serverBytes)
	cli := NewClient(srv, meter, clientBytes)
	return disk, meter, srv, cli
}

func allocPages(t *testing.T, p storage.Pager, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		id, buf, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		if err := p.Write(id); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func TestClientHitAvoidsRPC(t *testing.T) {
	_, meter, _, cli := newStack(t, 4*storage.PageSize, 4*storage.PageSize)
	ids := allocPages(t, cli, 1)
	meter.Reset()
	for i := 0; i < 10; i++ {
		if _, err := cli.Read(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	if meter.N.ClientHits != 10 || meter.N.ClientFaults != 0 || meter.N.RPCs != 0 {
		t.Fatalf("unexpected counters: %+v", meter.N)
	}
	if meter.Elapsed() != 0 {
		t.Fatalf("client hits should be free, took %v", meter.Elapsed())
	}
}

func TestMissPathChargesEveryLevel(t *testing.T) {
	_, meter, _, cli := newStack(t, 4*storage.PageSize, 4*storage.PageSize)
	ids := allocPages(t, cli, 1)
	cli.Shutdown() // cold caches
	meter.Reset()
	if _, err := cli.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	n := meter.N
	if n.ClientFaults != 1 || n.RPCs != 1 || n.DiskReads != 1 || n.ServerToClient != 1 {
		t.Fatalf("cold read counters: %+v", n)
	}
	// Warm at server only: shut down just the client by evicting.
	if got := meter.Model.PageRead + meter.Model.RPC; meter.Elapsed() != got {
		t.Fatalf("cold read cost %v, want %v", meter.Elapsed(), got)
	}
}

func TestServerHitAfterClientEviction(t *testing.T) {
	// Client holds 2 pages, server holds 8: a page evicted from the
	// client should still hit the server cache (SC2CC without disk I/O).
	_, meter, _, cli := newStack(t, 8*storage.PageSize, 2*storage.PageSize)
	ids := allocPages(t, cli, 3)
	cli.Flush()
	meter.Reset()
	// Touch all three in a cycle; client capacity 2 forces misses, but
	// all pages stay resident at the server.
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			if _, err := cli.Read(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if meter.N.DiskReads != 0 {
		t.Fatalf("server-resident pages hit the disk: %+v", meter.N)
	}
	if meter.N.ServerHits == 0 || meter.N.RPCs == 0 {
		t.Fatalf("expected server hits over RPC: %+v", meter.N)
	}
}

func TestDirtyEvictionWritesThrough(t *testing.T) {
	disk, meter, srv, cli := newStack(t, storage.PageSize, storage.PageSize)
	_ = disk
	// Two pages through a 1-page client and 1-page server: every dirty
	// eviction must charge an RPC, and server evictions must write to disk.
	allocPages(t, cli, 2)
	cli.Flush()
	if meter.N.DiskWrites == 0 {
		t.Fatalf("dirty pages never reached the disk: %+v", meter.N)
	}
	if srv.Resident() > 1 || cli.Resident() > 1 {
		t.Fatalf("capacity exceeded: srv=%d cli=%d", srv.Resident(), cli.Resident())
	}
}

func TestShutdownColdRestart(t *testing.T) {
	_, meter, srv, cli := newStack(t, 8*storage.PageSize, 8*storage.PageSize)
	ids := allocPages(t, cli, 4)
	cli.Shutdown()
	if srv.Resident() != 0 || cli.Resident() != 0 {
		t.Fatalf("caches not empty after shutdown: srv=%d cli=%d", srv.Resident(), cli.Resident())
	}
	meter.Reset()
	for _, id := range ids {
		if _, err := cli.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	if meter.N.DiskReads != 4 {
		t.Fatalf("cold reads hit disk %d times, want 4", meter.N.DiskReads)
	}
}

func TestDataSurvivesEvictionChurn(t *testing.T) {
	// Write distinct bytes to 50 pages through a tiny cache stack, then
	// read them all back cold and verify contents.
	_, _, _, cli := newStack(t, 2*storage.PageSize, 2*storage.PageSize)
	ids := allocPages(t, cli, 50)
	cli.Shutdown()
	for i, id := range ids {
		buf, err := cli.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("page %d content = %d, want %d", i, buf[0], i)
		}
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := newPageLRU(2 * storage.PageSize)
	l.Put(1, false)
	l.Put(2, false)
	l.Get(1) // 2 is now LRU
	if ev, _, ok := l.Put(3, false); !ok || ev != 2 {
		t.Fatalf("evicted %v (%v), want page 2", ev, ok)
	}
	if l.Peek(1) == nil || l.Peek(3) == nil || l.Peek(2) != nil {
		t.Fatal("wrong residency after eviction")
	}
}

func TestLRUDrainOrder(t *testing.T) {
	l := newPageLRU(3 * storage.PageSize)
	l.Put(1, false)
	l.Put(2, false)
	l.Put(3, false)
	l.Get(1)
	var got []storage.PageID
	l.Drain(func(id storage.PageID, _ *bool) { got = append(got, id) })
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("drain order: %v", got)
	}
	if l.Len() != 0 {
		t.Fatalf("len after drain = %d", l.Len())
	}
}

func TestScanMissRateMatchesCacheGeometry(t *testing.T) {
	// Sequentially scanning a file much larger than the client cache
	// twice must miss on every page both times (LRU pessimal case),
	// reproducing the paper's cold + repeat scan behaviour.
	disk := storage.NewDisk(0)
	meter := sim.NewMeter(sim.DefaultCostModel())
	srv := NewServer(disk, meter, 10*storage.PageSize)
	cli := NewClient(srv, meter, 20*storage.PageSize)
	ids := allocPages(t, cli, 100)
	cli.Shutdown()
	meter.Reset()
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			if _, err := cli.Read(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if meter.N.ClientFaults != 200 {
		t.Fatalf("faults = %d, want 200 (sequential flooding defeats LRU)", meter.N.ClientFaults)
	}
	if got := meter.N.ClientMissRate(); got != 100 {
		t.Fatalf("miss rate = %v%%, want 100%%", got)
	}
}

func TestHierarchyGeometry(t *testing.T) {
	disk := storage.NewDisk(0)
	meter := sim.NewMeter(sim.DefaultCostModel())
	srv, cli := Hierarchy(disk, meter, sim.DefaultMachine())
	if srv.lru.capacity != 1024 {
		t.Fatalf("server capacity = %d pages, want 1024 (4MB)", srv.lru.capacity)
	}
	if cli.lru.capacity != 8192 {
		t.Fatalf("client capacity = %d pages, want 8192 (32MB: 'it can hold 8000 pages')", cli.lru.capacity)
	}
}

func TestPrefetchBatchesRPCs(t *testing.T) {
	_, meter, _, cli := newStack(t, 256*storage.PageSize, 256*storage.PageSize)
	ids := allocPages(t, cli, 64)
	cli.Shutdown()
	cli.SetReadAhead(8)
	if cli.ReadAheadBatch() != 8 {
		t.Fatal("batch size not stored")
	}
	meter.Reset()
	for i := 0; i < len(ids); i += 8 {
		cli.Prefetch(ids[i : i+8])
		for _, id := range ids[i : i+8] {
			if _, err := cli.Read(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 8 batched RPCs instead of 64; all page traffic unchanged.
	if meter.N.RPCs != 8 {
		t.Fatalf("RPCs = %d, want 8", meter.N.RPCs)
	}
	if meter.N.DiskReads != 64 || meter.N.ServerToClient != 64 {
		t.Fatalf("page traffic wrong: %+v", meter.N)
	}
	// Prefetched pages never fault.
	if meter.N.ClientFaults != 0 {
		t.Fatalf("faults = %d", meter.N.ClientFaults)
	}
}

func TestPrefetchSkipsResidentAndBadPages(t *testing.T) {
	_, meter, _, cli := newStack(t, 256*storage.PageSize, 256*storage.PageSize)
	ids := allocPages(t, cli, 4)
	// All resident: a prefetch is free.
	meter.Reset()
	cli.Prefetch(ids)
	if meter.N.RPCs != 0 {
		t.Fatalf("resident prefetch charged %d RPCs", meter.N.RPCs)
	}
	// Unallocated pages are skipped quietly.
	cli.Shutdown()
	meter.Reset()
	cli.Prefetch([]storage.PageID{ids[0], storage.PageID(9999)})
	if meter.N.RPCs != 1 || meter.N.DiskReads != 1 {
		t.Fatalf("bad-page prefetch: %+v", meter.N)
	}
}

func TestFileScanUsesPrefetch(t *testing.T) {
	// A file scan through a prefetch-enabled client collapses its RPC
	// count by the batch size.
	disk := storage.NewDisk(0)
	meter := sim.NewMeter(sim.DefaultCostModel())
	srv := NewServer(disk, meter, 256*storage.PageSize)
	cli := NewClient(srv, meter, 256*storage.PageSize)
	f := &storage.File{Name: "f"}
	for i := 0; i < 2000; i++ {
		if _, err := f.Append(cli, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() int64 {
		cli.Shutdown()
		meter.Reset()
		if err := f.Scan(cli, func(storage.Rid, []byte) (bool, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
		return meter.N.RPCs
	}
	cli.SetReadAhead(1)
	plain := scan()
	cli.SetReadAhead(16)
	batched := scan()
	if batched*8 > plain {
		t.Fatalf("prefetch scan RPCs %d vs plain %d: no batching", batched, plain)
	}
}
