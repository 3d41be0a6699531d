package index

import (
	"fmt"

	"treebench/internal/storage"
)

// TreeState is the serializable descriptor of a B+-tree. The node pages
// themselves live in the snapshot's page image; only the root/size
// bookkeeping needs to travel alongside it.
type TreeState struct {
	ID     uint32
	Name   string
	Root   storage.PageID
	Height int
	Pages  int
	Len    int
}

// State exports the tree's descriptor.
func (t *Tree) State() TreeState {
	return TreeState{ID: t.ID, Name: t.Name, Root: t.root, Height: t.height, Pages: t.pages, Len: t.n}
}

// Restore rebuilds a tree descriptor over an existing page image. numPages
// is the image size, used to reject a root beyond it; deeper structural
// checks are Validate's job (and the page image's checksum's).
func Restore(st TreeState, numPages int) (*Tree, error) {
	if int(st.Root) >= numPages {
		return nil, fmt.Errorf("index: %s root page %d beyond image (%d pages)", st.Name, st.Root, numPages)
	}
	if st.Height < 1 || st.Pages < 1 || st.Len < 0 {
		return nil, fmt.Errorf("index: %s has impossible shape (height %d, %d pages, %d entries)",
			st.Name, st.Height, st.Pages, st.Len)
	}
	return &Tree{ID: st.ID, Name: st.Name, root: st.Root, height: st.Height, pages: st.Pages, n: st.Len}, nil
}
