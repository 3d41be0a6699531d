package storage

import (
	"bytes"
	"errors"
	"testing"
)

// buildBase makes a tiny frozen disk with n pages, page i filled with byte
// i, and returns the base (the builder disk is discarded).
func buildBase(t *testing.T, n int) *Base {
	t.Helper()
	d := NewDisk(1 << 20)
	for i := 0; i < n; i++ {
		id, buf, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("alloc %d got id %d", i, id)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := d.Write(id); err != nil {
			t.Fatal(err)
		}
	}
	b, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFreezeMakesBuilderReadOnly(t *testing.T) {
	d := NewDisk(1 << 20)
	id, _, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write after Freeze = %v, want ErrReadOnly", err)
	}
	if _, _, err := d.Alloc(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Alloc after Freeze = %v, want ErrReadOnly", err)
	}
	// Freezing a fork is meaningless and must error.
	b := buildBase(t, 1)
	if _, err := b.Fork().Freeze(); err == nil {
		t.Fatal("Freeze of a forked disk accepted")
	}
}

func TestReadOnlyForkSharesPages(t *testing.T) {
	b := buildBase(t, 3)
	f := b.Fork()
	if f.NumPages() != 3 {
		t.Fatalf("fork sees %d pages, want 3", f.NumPages())
	}
	buf, err := f.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("page 1 byte = %d, want 1", buf[0])
	}
	// A fork owns its COW overlay and its post-fork allocations.
	if n := len(f.overlay) + len(f.pages); n != 0 {
		t.Fatalf("read-only fork holds %d private pages, want 0 (zero-copy)", n)
	}
	if err := f.Write(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write on read-only fork = %v, want ErrReadOnly", err)
	}
	if _, _, err := f.Alloc(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Alloc on read-only fork = %v, want ErrReadOnly", err)
	}
}

// TestMutableForkCopyOnWrite is the isolation property the retire
// experiment depends on: a mutable fork's writes never reach the base or
// sibling forks, and its allocations continue past the frozen image.
func TestMutableForkCopyOnWrite(t *testing.T) {
	b := buildBase(t, 3)
	m := b.ForkMutable()
	r := b.Fork()

	// Mutate page 0 through the fork (read buffer, scribble, mark dirty —
	// the engine's aliasing discipline).
	buf, err := m.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xEE
	if err := m.Write(0); err != nil {
		t.Fatal(err)
	}
	// The sibling read-only fork still sees the frozen byte.
	rb, err := r.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if rb[0] != 0 {
		t.Fatalf("base page leaked a fork's write: byte = %#x", rb[0])
	}
	// The fork sees its own write back.
	mb, err := m.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if mb[0] != 0xEE {
		t.Fatalf("fork lost its own write: byte = %#x", mb[0])
	}

	// Allocation continues the id space past the base.
	id, nb, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 3 {
		t.Fatalf("first fork alloc id = %d, want 3", id)
	}
	nb[0] = 0x77
	if err := m.Write(id); err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 4 {
		t.Fatalf("fork NumPages = %d, want 4", m.NumPages())
	}
	// The base never grows.
	if b.NumPages() != 3 {
		t.Fatalf("base grew to %d pages", b.NumPages())
	}
	// A second mutable fork is isolated from the first.
	m2 := b.ForkMutable()
	b2, err := m2.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if b2[0] != 0 {
		t.Fatalf("sibling mutable fork sees another fork's write: %#x", b2[0])
	}
	if _, err := m2.Read(3); !errors.Is(err, ErrNoPage) {
		t.Fatalf("sibling fork can read another fork's private page: %v", err)
	}
}

// TestStoreForkClonesFiles checks the file-layer half: appending through a
// mutable fork's store grows only the fork's file, and the forked file
// reads back the frozen records byte-identically.
func TestStoreForkClonesFiles(t *testing.T) {
	s := NewStore(1 << 20)
	d := s.Disk
	f, err := s.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	var rids []Rid
	for i := 0; i < 100; i++ {
		rid, err := f.Append(d, []byte{byte(i), 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	base, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	md := base.ForkMutable()
	ms := s.Fork(md)
	mf, err := ms.File("t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(md, rids[42])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{42, 1, 2, 3}) {
		t.Fatalf("forked file record 42 = %v", got)
	}
	// Grow the fork far enough to allocate pages; the frozen file is
	// untouched.
	before := f.NumPages()
	for i := 0; i < 2000; i++ {
		if _, err := mf.Append(md, []byte{9, 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumPages() != before {
		t.Fatalf("frozen file grew from %d to %d pages", before, f.NumPages())
	}
	if mf.NumPages() <= before {
		t.Fatalf("forked file did not grow: %d pages", mf.NumPages())
	}
	// The frozen store itself refuses writes.
	if _, err := f.Append(d, []byte{1, 2, 3, 4}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append to frozen file = %v, want ErrReadOnly", err)
	}
}
