package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"treebench/internal/storage"
)

// TestStagedReadMatchesVectored: the two ways a fileSource reads a window
// — scattered by the platform's readVec, or staged through aligned scratch
// as under O_DIRECT and where there is no preadv — must fill the same
// bytes, at a page image that starts off any alignment boundary and at the
// short tail of the file.
func TestStagedReadMatchesVectored(t *testing.T) {
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
	vectored := &fileSource{f: f, firstOff: firstOff, numPages: numPages}
	staged := &fileSource{f: f, firstOff: firstOff, numPages: numPages, direct: true}
	for _, c := range []struct{ lo, n int }{{0, 32}, {7, 1}, {numPages - 5, 5}} {
		a, b := window(c.n), window(c.n)
		if err := vectored.ReadPages(c.lo, a); err != nil {
			t.Fatal(err)
		}
		if err := staged.ReadPages(c.lo, b); err != nil {
			t.Fatal(err)
		}
		one := make([]byte, storage.PageSize)
		for i := range a {
			want := image[firstOff+(c.lo+i)*storage.PageSize:][:storage.PageSize]
			if err := staged.ReadPage(c.lo+i, one); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a[i], want) || !bytes.Equal(b[i], want) || !bytes.Equal(one, want) {
				t.Fatalf("window [%d,+%d): page %d differs from the file", c.lo, c.n, c.lo+i)
			}
		}
	}
	if err := staged.ReadPages(numPages-1, window(2)); err == nil {
		t.Fatal("a window past the last page was read")
	}
}
