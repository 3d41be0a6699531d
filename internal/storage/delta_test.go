package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"treebench/internal/bufpool"
)

// TestPageSizeIsPoolFrame: the process-wide buffer pool's frames are
// pages of this package.
func TestPageSizeIsPoolFrame(t *testing.T) {
	if PageSize != bufpool.FrameSize {
		t.Fatalf("PageSize %d, bufpool.FrameSize %d", PageSize, bufpool.FrameSize)
	}
}

// mkBase builds a frozen base of n pages, page i filled with byte i.
func mkBase(t *testing.T, n int) *Base {
	t.Helper()
	d := NewDisk(0)
	for i := 0; i < n; i++ {
		_, buf, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
	}
	b, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// partialCache is a PageCache holding some pages of a file.
type partialCache map[int][]byte

func (c partialCache) GetPage(i int) ([]byte, error) {
	if buf, ok := c[i]; ok {
		return buf, nil
	}
	return nil, ErrNoPage
}

func (c partialCache) GetPageAs(_ *bufpool.Reader, i int) ([]byte, error) { return c.GetPage(i) }

func (c partialCache) Resident(i int) ([]byte, bool) {
	buf, ok := c[i]
	return buf, ok
}

// TestResidentThroughChain: Resident answers from every layer of a
// chain without a read — a delta's overlay and appended pages, an eager
// base's pages, the frames a page cache holds — and Cache finds the
// cache under the chain.
func TestResidentThroughChain(t *testing.T) {
	held := make([]byte, PageSize)
	cache := partialCache{1: held, 2: make([]byte, PageSize)}
	root := NewCachedBase(4, 0, cache)
	fork := root.ForkMutable()
	overlay, err := fork.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	_, appended, err := fork.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	delete(cache, 2) // the overlay copy answers for page 2 from now on
	top, _, err := fork.Promote()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id   PageID
		want []byte // nil: not resident
	}{{0, nil}, {1, held}, {2, overlay}, {3, nil}, {4, appended}, {5, nil}} {
		got, ok := top.Resident(c.id)
		if ok != (c.want != nil) || (ok && &got[0] != &c.want[0]) {
			t.Errorf("Resident(%d) = %v, want resident %v", c.id, ok, c.want != nil)
		}
	}
	if top.Cache() == nil || root.Cache() == nil || mkBase(t, 1).Cache() != nil {
		t.Fatal("Cache does not find the page cache under a chain, or finds one under an eager base")
	}
	if buf, ok := mkBase(t, 2).Resident(1); !ok || buf[0] != 1 {
		t.Fatal("an eager base's page is not resident")
	}
}

func TestPromote(t *testing.T) {
	base := mkBase(t, 4)
	fork := base.ForkMutable()

	// Mutate page 2 through the COW overlay and append a private page.
	buf, err := fork.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xAA
	if err := fork.Write(2); err != nil {
		t.Fatal(err)
	}
	id, nbuf, err := fork.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("appended page id = %d, want 4", id)
	}
	nbuf[0] = 0xBB

	nb, delta, err := fork.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if nb.NumPages() != 5 {
		t.Fatalf("delta base pages = %d, want 5", nb.NumPages())
	}
	if delta.Pages() != 2 || len(delta.OverlayIDs()) != 1 || delta.OverlayIDs()[0] != 2 {
		t.Fatalf("delta shape: pages %d overlay %v", delta.Pages(), delta.OverlayIDs())
	}

	// The new base serves the overlay, the appended page, and falls
	// through to the parent for untouched pages.
	for i, want := range []byte{0, 1, 0xAA, 3, 0xBB} {
		p, err := nb.Page(PageID(i))
		if err != nil {
			t.Fatalf("Page(%d): %v", i, err)
		}
		if p[0] != want {
			t.Errorf("page %d byte 0 = %#x, want %#x", i, p[0], want)
		}
	}
	// The parent is untouched.
	p2, _ := base.Page(2)
	if p2[0] != 2 {
		t.Errorf("parent page 2 mutated: %#x", p2[0])
	}
	if _, err := base.Page(4); !errors.Is(err, ErrNoPage) {
		t.Errorf("parent grew a page: %v", err)
	}

	// The promoting disk is now a read-only fork of the new base: reads
	// still work (and no longer populate any private overlay), writes and
	// allocations fail.
	if !fork.ConcurrentReads() {
		t.Error("promoted disk still claims a private overlay")
	}
	got, err := fork.Read(2)
	if err != nil || got[0] != 0xAA {
		t.Errorf("promoted read(2) = %v %v", got, err)
	}
	if err := fork.Write(2); !errors.Is(err, ErrReadOnly) {
		t.Errorf("promoted write: %v", err)
	}
	if _, _, err := fork.Alloc(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("promoted alloc: %v", err)
	}
	if _, _, err := fork.Promote(); err == nil {
		t.Error("second promote succeeded")
	}
}

// TestDeltaChain stacks two committed deltas and checks reads resolve
// through the whole chain, concurrently (the -race gate for version
// chains).
func TestDeltaChain(t *testing.T) {
	base := mkBase(t, 3)
	f1 := base.ForkMutable()
	b1, _ := f1.Read(0)
	b1[0] = 0x10
	f1.Write(0)
	v1, _, err := f1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	f2 := v1.ForkMutable()
	b2, _ := f2.Read(1)
	b2[0] = 0x20
	f2.Write(1)
	_, nbuf, _ := f2.Alloc()
	nbuf[0] = 0x30
	v2, _, err := f2.Promote()
	if err != nil {
		t.Fatal(err)
	}

	want := []byte{0x10, 0x20, 2, 0x30}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := v2.Fork()
			for i, w := range want {
				p, err := r.Read(PageID(i))
				if err != nil || p[0] != w {
					t.Errorf("chain read page %d = %v %v, want %#x", i, p, err, w)
					return
				}
			}
		}()
	}
	wg.Wait()

	// v1 is unaffected by v2's commit.
	p1, _ := v1.Page(1)
	if p1[0] != 1 {
		t.Errorf("v1 page 1 = %#x, want 1", p1[0])
	}
}

func TestNewDeltaValidation(t *testing.T) {
	base := mkBase(t, 2)
	if _, err := NewDelta(base, map[PageID][]byte{5: make([]byte, PageSize)}, nil); err == nil {
		t.Error("overlay beyond parent accepted")
	}
	if _, err := NewDelta(base, map[PageID][]byte{0: make([]byte, 7)}, nil); err == nil {
		t.Error("short overlay page accepted")
	}
	if _, err := NewDelta(base, nil, [][]byte{make([]byte, 7)}); err == nil {
		t.Error("short appended page accepted")
	}
	d, err := NewDelta(base, map[PageID][]byte{0: bytes.Repeat([]byte{9}, PageSize)}, [][]byte{make([]byte, PageSize)})
	if err != nil {
		t.Fatal(err)
	}
	nb := NewDeltaBase(d)
	if nb.NumPages() != 3 {
		t.Fatalf("pages = %d", nb.NumPages())
	}
	p, err := nb.Page(0)
	if err != nil || p[0] != 9 {
		t.Fatalf("page 0 = %v %v", p, err)
	}
}
