package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"treebench/internal/storage"
)

// TestWindowReadMatchesFile: a window read through the platform's readVec
// and a single page read must both fill exactly the file's bytes, at a page
// image that starts off any alignment boundary and at the tail of the file,
// and a window past the last page must be refused.
func TestWindowReadMatchesFile(t *testing.T) {
	const firstOff, numPages = 1234, 40
	image := make([]byte, firstOff+numPages*storage.PageSize)
	rand.New(rand.NewSource(1997)).Read(image)
	path := filepath.Join(t.TempDir(), "pages")
	if err := os.WriteFile(path, image, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	window := func(n int) [][]byte {
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, storage.PageSize)
		}
		return bufs
	}
	src := &fileSource{f: f, firstOff: firstOff, numPages: numPages}
	for _, c := range []struct{ lo, n int }{{0, 32}, {7, 1}, {numPages - 5, 5}} {
		bufs := window(c.n)
		if err := src.ReadPages(c.lo, bufs); err != nil {
			t.Fatal(err)
		}
		one := make([]byte, storage.PageSize)
		for i := range bufs {
			want := image[firstOff+(c.lo+i)*storage.PageSize:][:storage.PageSize]
			if err := src.ReadPage(c.lo+i, one); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bufs[i], want) || !bytes.Equal(one, want) {
				t.Fatalf("window [%d,+%d): page %d differs from the file", c.lo, c.n, c.lo+i)
			}
		}
	}
	if err := src.ReadPages(numPages-1, window(2)); err == nil {
		t.Fatal("a window past the last page was read")
	}
}
