package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestFileAppendScan(t *testing.T) {
	s := NewStore(0)
	f, err := s.CreateFile("doctors")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	rids := make([]Rid, n)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-padding-padding", i))
		rids[i], err = f.Append(s.Disk, rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	err = f.Scan(s.Disk, func(rid Rid, rec []byte) (bool, error) {
		if rid != rids[seen] {
			return false, fmt.Errorf("scan order broken at %d: %v vs %v", seen, rid, rids[seen])
		}
		want := fmt.Sprintf("record-%04d-padding-padding", seen)
		if string(rec) != want {
			return false, fmt.Errorf("record %d = %q", seen, rec)
		}
		seen++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scanned %d records, want %d", seen, n)
	}
}

func TestFileLeavesReserve(t *testing.T) {
	s := NewStore(0)
	f, _ := s.CreateFile("f")
	rec := make([]byte, 120) // provider-sized records
	for i := 0; i < 1000; i++ {
		if _, err := f.Append(s.Disk, rec); err != nil {
			t.Fatal(err)
		}
	}
	// 4080 payload, 10% reserve ⇒ usable 3672 ⇒ 29 records of 124 per page
	// ⇒ 1000/29 = 35 pages.
	perPage := (PageSize - pageHeaderLen - reservePerPage) / (120 + slotLen)
	wantPages := (1000 + perPage - 1) / perPage
	if got := f.NumPages(); got != wantPages {
		t.Fatalf("file has %d pages, want %d (%d records/page)", got, wantPages, perPage)
	}
}

func TestPaperPageCounts(t *testing.T) {
	// §2: "with 4K pages, partially filled ... a 10⁶×3 database leads to
	// about 33000 (resp. 49000) pages of providers (resp. patients)".
	// Provider records ≈120 B ⇒ 29/page ⇒ 34.5k pages for 10⁶.
	perProviderPage := (PageSize - pageHeaderLen - reservePerPage) / (120 + slotLen)
	providerPages := 1_000_000 / perProviderPage
	if providerPages < 30_000 || providerPages > 37_000 {
		t.Fatalf("provider pages = %d, want ≈33000", providerPages)
	}
	// Patient records ≈60 B (unindexed) ⇒ ~57/page ⇒ 3M/57 ≈ 52k pages.
	perPatientPage := (PageSize - pageHeaderLen - reservePerPage) / (60 + slotLen)
	patientPages := 3_000_000 / perPatientPage
	if patientPages < 45_000 || patientPages > 56_000 {
		t.Fatalf("patient pages = %d, want ≈49000", patientPages)
	}
}

func TestFileUpdateInPlaceAndRelocate(t *testing.T) {
	s := NewStore(0)
	f, _ := s.CreateFile("f")
	// Fill a few pages so relocation has somewhere visible to go.
	var rids []Rid
	for i := 0; i < 100; i++ {
		rid, err := f.Append(s.Disk, bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// In-place update (same size).
	reloc, err := f.Update(s.Disk, rids[0], bytes.Repeat([]byte{0xEE}, 100))
	if err != nil || reloc {
		t.Fatalf("in-place update: reloc=%v err=%v", reloc, err)
	}
	got, err := Get(s.Disk, rids[0])
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, 100)) {
		t.Fatalf("after in-place update: %v", err)
	}
	// Growing update that cannot fit: record 0's page is full of records
	// plus reserve; growing it to 1000 bytes exceeds free space.
	grown := bytes.Repeat([]byte{0xDD}, 1000)
	reloc, err = f.Update(s.Disk, rids[0], grown)
	if err != nil {
		t.Fatal(err)
	}
	if !reloc {
		t.Fatal("expected relocation")
	}
	// Old Rid still resolves, through the stub.
	got, err = Get(s.Disk, rids[0])
	if err != nil || !bytes.Equal(got, grown) {
		t.Fatalf("after relocation: err=%v len=%d", err, len(got))
	}
	// A second growing update goes to the relocated home without another hop.
	grown2 := bytes.Repeat([]byte{0xCC}, 1001)
	if _, err = f.Update(s.Disk, rids[0], grown2); err != nil {
		t.Fatal(err)
	}
	got, err = Get(s.Disk, rids[0])
	if err != nil || !bytes.Equal(got, grown2) {
		t.Fatalf("after second relocation-home update: err=%v len=%d", err, len(got))
	}
}

func TestScanSkipsForwardingStubs(t *testing.T) {
	s := NewStore(0)
	f, _ := s.CreateFile("f")
	var rids []Rid
	for i := 0; i < 60; i++ {
		rid, _ := f.Append(s.Disk, bytes.Repeat([]byte{byte(i)}, 200))
		rids = append(rids, rid)
	}
	if reloc, err := f.Update(s.Disk, rids[0], bytes.Repeat([]byte{0xFF}, 2500)); err != nil || !reloc {
		t.Fatalf("reloc=%v err=%v", reloc, err)
	}
	count := 0
	var sawGrown bool
	err := f.Scan(s.Disk, func(rid Rid, rec []byte) (bool, error) {
		count++
		if len(rec) == 2500 {
			sawGrown = true
			if rid == rids[0] {
				return false, fmt.Errorf("grown record scanned at old rid")
			}
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 60 {
		t.Fatalf("scan visited %d records, want 60 (no stub, no duplicate)", count)
	}
	if !sawGrown {
		t.Fatal("relocated record not visited at new home")
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := NewStore(0)
	f, _ := s.CreateFile("f")
	for i := 0; i < 10; i++ {
		f.Append(s.Disk, []byte("rec"))
	}
	count := 0
	err := f.Scan(s.Disk, func(Rid, []byte) (bool, error) {
		count++
		return count < 3, nil
	})
	if err != nil || count != 3 {
		t.Fatalf("early stop: count=%d err=%v", count, err)
	}
}

func TestStoreCatalog(t *testing.T) {
	s := NewStore(0)
	if _, err := s.CreateFile("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFile("a"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.File("missing"); !errors.Is(err, ErrBadFile) {
		t.Fatalf("missing file: %v", err)
	}
	s.CreateFile("b")
	if got := s.State(); len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("State() = %v, want files a then b", got)
	}
}

func TestDiskCapacity(t *testing.T) {
	d := NewDisk(2 * PageSize)
	if _, _, err := d.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Alloc(); err == nil {
		t.Fatal("disk over capacity should fail to allocate")
	}
	if _, err := d.Read(PageID(99)); !errors.Is(err, ErrNoPage) {
		t.Fatalf("read of unallocated page: %v", err)
	}
	if err := d.Write(PageID(99)); !errors.Is(err, ErrNoPage) {
		t.Fatalf("write of unallocated page: %v", err)
	}
}

func TestGetNilRid(t *testing.T) {
	s := NewStore(0)
	if _, err := Get(s.Disk, NilRid); err == nil {
		t.Fatal("Get(NilRid) should fail")
	}
}

func TestRepeatedRelocationRetargetsStub(t *testing.T) {
	// A record that keeps growing relocates more than once: the original
	// stub is retargeted (never chained) and the abandoned home is freed.
	s := NewStore(0)
	f, _ := s.CreateFile("f")
	var rids []Rid
	for i := 0; i < 40; i++ {
		rid, _ := f.Append(s.Disk, bytes.Repeat([]byte{1}, 90))
		rids = append(rids, rid)
	}
	grower := rids[0]
	for size := 200; size <= 3200; size += 300 {
		want := bytes.Repeat([]byte{byte(size / 100)}, size)
		if _, err := f.Update(s.Disk, grower, want); err != nil {
			t.Fatalf("grow to %d: %v", size, err)
		}
		got, err := Get(s.Disk, grower)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after grow to %d: err=%v len=%d", size, err, len(got))
		}
	}
	// The scan still sees exactly 40 records (no duplicates from stale
	// copies).
	count := 0
	if err := f.Scan(s.Disk, func(Rid, []byte) (bool, error) { count++; return true, nil }); err != nil {
		t.Fatal(err)
	}
	if count != 40 {
		t.Fatalf("scan sees %d records", count)
	}
}

func TestPageUsedAndDiskNumPages(t *testing.T) {
	p := newTestPage()
	free := p.FreeSpace()
	if free != PageSize-pageHeaderLen-slotLen {
		t.Fatalf("fresh page FreeSpace = %d", free)
	}
	p.Insert(bytes.Repeat([]byte{1}, 100))
	if used := free - p.FreeSpace(); used != 104 { // record + slot
		t.Fatalf("insert used %d bytes, want 104", used)
	}
	d := NewDisk(0)
	if d.NumPages() != 0 {
		t.Fatal("fresh disk has pages")
	}
	d.Alloc()
	d.Alloc()
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}
