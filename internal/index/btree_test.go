package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treebench/internal/cache"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

func ridFor(i int) storage.Rid {
	return storage.Rid{Page: storage.PageID(i / 50), Slot: uint16(i % 50)}
}

// New creates an empty tree (a single empty leaf) for the insert tests:
// every product index is bulk-loaded by Build or restored from a file.
func New(p storage.Pager, id uint32, name string) (*Tree, error) {
	rootID, buf, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	initNode(buf, true)
	if err := p.Write(rootID); err != nil {
		return nil, err
	}
	return &Tree{ID: id, Name: name, root: rootID, height: 1, pages: 1}, nil
}

func collect(t *testing.T, tr *Tree, p storage.Pager, lo, hi int64) []Entry {
	t.Helper()
	var out []Entry
	if err := tr.Scan(p, lo, hi, func(e Entry) (bool, error) {
		out = append(out, e)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBuildAndScan(t *testing.T) {
	s := storage.NewStore(0)
	entries := make([]Entry, 10000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Rid: ridFor(i)}
	}
	// Shuffle: Build must sort.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

	tr, err := Build(s.Disk, 1, "idx", entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(s.Disk); err != nil {
		t.Fatal(err)
	}
	got := collect(t, tr, s.Disk, 0, 10000)
	if len(got) != 10000 {
		t.Fatalf("full scan returned %d", len(got))
	}
	for i, e := range got {
		if e.Key != int64(i) || e.Rid != ridFor(i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Range scan.
	got = collect(t, tr, s.Disk, 100, 200)
	if len(got) != 100 || got[0].Key != 100 || got[99].Key != 199 {
		t.Fatalf("range scan: %d entries, first %d", len(got), got[0].Key)
	}
	// Tree must be shallow: 10k entries at 229/leaf ≈ 44 leaves, 2 levels.
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2", tr.Height())
	}
}

func TestBuildEmptyAndInsert(t *testing.T) {
	s := storage.NewStore(0)
	tr, err := Build(s.Disk, 1, "idx", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, tr, s.Disk, -1<<62, 1<<62); len(got) != 0 {
		t.Fatalf("empty tree scan: %d entries", len(got))
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(s.Disk, Entry{Key: int64(i * 7 % 1000), Rid: ridFor(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(s.Disk); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSplitsGrowTree(t *testing.T) {
	s := storage.NewStore(0)
	tr, _ := New(s.Disk, 1, "idx")
	const n = 60000 // forces at least 3 levels through repeated splits
	for i := 0; i < n; i++ {
		if err := tr.Insert(s.Disk, Entry{Key: int64(i), Rid: ridFor(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d after %d sequential inserts", tr.Height(), n)
	}
	if err := tr.Validate(s.Disk); err != nil {
		t.Fatal(err)
	}
	got := collect(t, tr, s.Disk, 0, n)
	if len(got) != n {
		t.Fatalf("scan returned %d, want %d", len(got), n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	s := storage.NewStore(0)
	tr, _ := New(s.Disk, 1, "idx")
	// 500 objects share key 42 (a provider with many patients of one mrn
	// bucket — duplicates must all be retrievable).
	for i := 0; i < 500; i++ {
		tr.Insert(s.Disk, Entry{Key: 42, Rid: ridFor(i)})
	}
	tr.Insert(s.Disk, Entry{Key: 41, Rid: ridFor(9999)})
	tr.Insert(s.Disk, Entry{Key: 43, Rid: ridFor(9998)})
	rids, err := tr.Lookup(s.Disk, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 500 {
		t.Fatalf("Lookup(42) = %d rids, want 500", len(rids))
	}
	if err := tr.Validate(s.Disk); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	s := storage.NewStore(0)
	tr, _ := New(s.Disk, 1, "idx")
	for i := 0; i < 100; i++ {
		tr.Insert(s.Disk, Entry{Key: int64(i), Rid: ridFor(i)})
	}
	ok, err := tr.Delete(s.Disk, Entry{Key: 50, Rid: ridFor(50)})
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	ok, _ = tr.Delete(s.Disk, Entry{Key: 50, Rid: ridFor(50)})
	if ok {
		t.Fatal("double delete succeeded")
	}
	// Deleting a key that exists under a different rid fails.
	ok, _ = tr.Delete(s.Disk, Entry{Key: 51, Rid: ridFor(9999)})
	if ok {
		t.Fatal("deleted wrong rid")
	}
	if rids, _ := tr.Lookup(s.Disk, 50); len(rids) != 0 {
		t.Fatal("key 50 still present")
	}
	if tr.Len() != 99 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(s.Disk); err != nil {
		t.Fatal(err)
	}
}

func TestScanEarlyStopAndEmptyRange(t *testing.T) {
	s := storage.NewStore(0)
	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Rid: ridFor(i)}
	}
	tr, _ := Build(s.Disk, 1, "idx", entries)
	count := 0
	tr.Scan(s.Disk, 0, 1000, func(Entry) (bool, error) { count++; return count < 10, nil })
	if count != 10 {
		t.Fatalf("early stop at %d", count)
	}
	if got := collect(t, tr, s.Disk, 500, 500); len(got) != 0 {
		t.Fatal("empty range returned entries")
	}
	if got := collect(t, tr, s.Disk, 2000, 3000); len(got) != 0 {
		t.Fatal("out-of-range scan returned entries")
	}
}

// TestIndexScanPaysIO verifies the §4.2 observation: scanning through an
// index charges I/O for the index pages themselves.
func TestIndexScanPaysIO(t *testing.T) {
	disk := storage.NewDisk(0)
	meter := sim.NewMeter(sim.DefaultCostModel())
	srv := cache.NewServer(disk, meter, 64*storage.PageSize)
	cli := cache.NewClient(srv, meter, 64*storage.PageSize)

	entries := make([]Entry, 20000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Rid: ridFor(i)}
	}
	tr, err := Build(cli, 1, "idx", entries)
	if err != nil {
		t.Fatal(err)
	}
	cli.Shutdown()
	meter.Reset()
	got := collect(t, tr, cli, 0, 20000)
	if len(got) != 20000 {
		t.Fatalf("scan = %d", len(got))
	}
	// ≈88 leaves at 90% of 255/leaf, plus the root.
	if meter.N.DiskReads < 85 || meter.N.DiskReads > 100 {
		t.Fatalf("cold index scan read %d pages, want ≈89", meter.N.DiskReads)
	}
}

// Property: Build + random Inserts agree with a shadow model over random
// key multisets.
func TestTreeMatchesShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := storage.NewStore(0)
		n := 200 + rng.Intn(800)
		built := make([]Entry, n)
		shadow := map[int64]int{}
		for i := range built {
			k := int64(rng.Intn(100)) // many duplicates
			built[i] = Entry{Key: k, Rid: ridFor(i)}
			shadow[k]++
		}
		tr, err := Build(s.Disk, 1, "p", built)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			k := int64(rng.Intn(100))
			if err := tr.Insert(s.Disk, Entry{Key: k, Rid: ridFor(10000 + i)}); err != nil {
				return false
			}
			shadow[k]++
		}
		if tr.Validate(s.Disk) != nil {
			return false
		}
		got := map[int64]int{}
		tr.Scan(s.Disk, -1, 200, func(e Entry) (bool, error) {
			got[e.Key]++
			return true, nil
		})
		if len(got) != len(shadow) {
			return false
		}
		for k, v := range shadow {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
