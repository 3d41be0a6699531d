package collection

import (
	"testing"
	"testing/quick"

	"treebench/internal/storage"
)

func rids(n int) []storage.Rid {
	out := make([]storage.Rid, n)
	for i := range out {
		out[i] = storage.Rid{Page: storage.PageID(i / 7), Slot: uint16(i % 7)}
	}
	return out
}

func TestCreateAndScanSmall(t *testing.T) {
	s := storage.NewStore(0)
	f, _ := s.CreateFile("owners")
	want := rids(3)
	head, err := Create(s.Disk, f, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Elems(s.Disk, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n, _ := Len(s.Disk, head); n != 3 {
		t.Fatalf("Len = %d", n)
	}
}

func TestEmptyCollection(t *testing.T) {
	s := storage.NewStore(0)
	f, _ := s.CreateFile("owners")
	head, err := Create(s.Disk, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if head.IsNil() {
		t.Fatal("empty collection must still have a head chunk")
	}
	got, err := Elems(s.Disk, head)
	if err != nil || len(got) != 0 {
		t.Fatalf("Elems = %v (%v)", got, err)
	}
}

func TestLargeCollectionChains(t *testing.T) {
	s := storage.NewStore(0)
	big, _ := s.CreateFile("bigsets")
	want := rids(1000) // the paper's 1:1000 clients set
	head, err := Create(s.Disk, big, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Elems(s.Disk, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d mismatch", i)
		}
	}
	// 1000 elements at 420/chunk = 3 chunks; each is its own record but
	// chunks share pages.
	if n := big.NumPages(); n < 3 {
		t.Fatalf("1000-element set occupies %d pages", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := storage.NewStore(0)
	f, _ := s.CreateFile("f")
	head, _ := Create(s.Disk, f, rids(900))
	count := 0
	err := Scan(s.Disk, head, func(storage.Rid) (bool, error) {
		count++
		return count < 500, nil
	})
	if err != nil || count != 500 {
		t.Fatalf("count=%d err=%v", count, err)
	}
}

func TestEncodedSizePlacementRule(t *testing.T) {
	// 3 elements: 10 + 24 = 34 bytes — inline in the owner's file.
	if got := EncodedSize(3); got != 34 {
		t.Fatalf("EncodedSize(3) = %d, want 34", got)
	}
	// 1000 elements must exceed a page, forcing the separate file.
	if got := EncodedSize(1000); got <= storage.PageSize {
		t.Fatalf("EncodedSize(1000) = %d, want > %d", got, storage.PageSize)
	}
	if EncodedSize(0) != chunkHeaderLen {
		t.Fatalf("EncodedSize(0) = %d", EncodedSize(0))
	}
}

// Property: round trip of arbitrary-size collections preserves order and
// content across chunk boundaries.
func TestRoundTripProperty(t *testing.T) {
	f := func(n uint16) bool {
		size := int(n % 1500)
		s := storage.NewStore(0)
		file, _ := s.CreateFile("f")
		want := rids(size)
		head, err := Create(s.Disk, file, want)
		if err != nil {
			return false
		}
		got, err := Elems(s.Disk, head)
		if err != nil || len(got) != size {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		ln, err := Len(s.Disk, head)
		return err == nil && ln == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAddGrowsChunksAndChains(t *testing.T) {
	s := storage.NewStore(0)
	f, _ := s.CreateFile("f")
	head, err := Create(s.Disk, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = ChunkElems*2 + 50 // forces two chained chunk extensions
	for i := 0; i < n; i++ {
		if err := Add(s.Disk, f, head, rids(i + 1)[i]); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	got, err := Elems(s.Disk, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	want := rids(n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d = %v, want %v", i, got[i], want[i])
		}
	}
	if ln, _ := Len(s.Disk, head); ln != n {
		t.Fatalf("Len = %d", ln)
	}
}

func TestRemove(t *testing.T) {
	s := storage.NewStore(0)
	f, _ := s.CreateFile("f")
	all := rids(900) // spans 3 chunks
	head, _ := Create(s.Disk, f, all)
	victim := all[500]
	ok, err := Remove(s.Disk, f, head, victim)
	if err != nil || !ok {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if ln, _ := Len(s.Disk, head); ln != 899 {
		t.Fatalf("Len = %d", ln)
	}
	// Removing again fails gracefully.
	ok, err = Remove(s.Disk, f, head, victim)
	if err != nil || ok {
		t.Fatalf("double remove: %v %v", ok, err)
	}
	// Every other element intact.
	got, _ := Elems(s.Disk, head)
	seen := map[storage.Rid]bool{}
	for _, r := range got {
		seen[r] = true
	}
	if seen[victim] {
		t.Fatal("element survives removal")
	}
	for i, r := range all {
		if i == 500 {
			continue
		}
		if !seen[r] {
			t.Fatalf("lost element %d", i)
		}
	}
}

func TestAddRemoveChurnProperty(t *testing.T) {
	// Random add/remove churn against a shadow multiset.
	s := storage.NewStore(0)
	f, _ := s.CreateFile("f")
	head, _ := Create(s.Disk, f, nil)
	shadow := map[storage.Rid]int{}
	rid := func(i int) storage.Rid {
		return storage.Rid{Page: storage.PageID(i), Slot: uint16(i % 7)}
	}
	for step := 0; step < 2000; step++ {
		i := step * 31 % 400
		if step%3 == 2 && shadow[rid(i)] > 0 {
			ok, err := Remove(s.Disk, f, head, rid(i))
			if err != nil || !ok {
				t.Fatalf("remove step %d: %v %v", step, ok, err)
			}
			shadow[rid(i)]--
		} else {
			if err := Add(s.Disk, f, head, rid(i)); err != nil {
				t.Fatalf("add step %d: %v", step, err)
			}
			shadow[rid(i)]++
		}
	}
	got, _ := Elems(s.Disk, head)
	counts := map[storage.Rid]int{}
	for _, r := range got {
		counts[r]++
	}
	for r, want := range shadow {
		if counts[r] != want {
			t.Fatalf("element %v count %d, want %d", r, counts[r], want)
		}
	}
}
