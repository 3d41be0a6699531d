package index

import (
	"testing"

	"treebench/internal/storage"
)

// scribbler is a Pager that hands out a private copy of each page it reads
// and, at quiesce, scribbles over every copy it handed out: what a buffer
// pool may do to a reader's pages once the reader announced that it holds
// none.
type scribbler struct {
	storage.Pager
	out [][]byte
}

func (s *scribbler) Read(id storage.PageID) ([]byte, error) {
	buf, err := s.Pager.Read(id)
	if err != nil {
		return nil, err
	}
	c := append([]byte(nil), buf...)
	s.out = append(s.out, c)
	return c, nil
}

func (s *scribbler) quiesce() {
	for _, b := range s.out {
		for i := range b {
			b[i] = 0xDB
		}
	}
	s.out = s.out[:0]
}

// TestScanBatchedHoldsNoLeafAcrossDeliveries: a ScanBatched consumer may
// quiesce in every delivery, so no delivery may leave the scan reading a
// page it read before — neither one inside a leaf (batches smaller than a
// leaf) nor one that ends it (the leaf's next pointer).
func TestScanBatchedHoldsNoLeafAcrossDeliveries(t *testing.T) {
	s := storage.NewStore(0)
	entries := make([]Entry, 3*LeafFanout+17)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Rid: ridFor(i)}
	}
	tr, err := Build(s.Disk, 1, "idx", entries)
	if err != nil {
		t.Fatal(err)
	}
	const lo = 5
	for _, size := range []int{1, 7, LeafFanout, 1024} {
		p := &scribbler{Pager: s.Disk}
		var got []Entry
		err := tr.ScanBatched(p, lo, int64(len(entries)), make([]Entry, 0, size), func(batch []Entry) (bool, error) {
			got = append(got, batch...)
			p.quiesce()
			return true, nil
		})
		if err != nil {
			t.Fatalf("batch %d: %v", size, err)
		}
		want := entries[lo:]
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d entries, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: entry %d is %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}
}
