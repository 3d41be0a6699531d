package persist

import (
	"fmt"
	"os"

	"treebench/internal/storage"
)

// fileSource is the bufpool.Source over a snapshot file's page image: one
// page per positioned read on a plain miss, one readahead window per
// system call on a sequential one. How a window is read from a file is
// decided here and nowhere else: preadv(2) scatters it straight into the
// pool's frames on Linux (source_linux.go); elsewhere each page of the
// window is one positioned read. The file handle lives as long as the
// snapshot: there is no close protocol, and the descriptor closes when
// the collector finalizes the file once no version over it is reachable —
// a base a compaction replaced closes after its last reader lets go.
type fileSource struct {
	f        *os.File
	firstOff int64 // offset of the first raw page
	numPages int
}

func (s *fileSource) ReadPage(i int, dst []byte) error {
	if i < 0 || i >= s.numPages {
		return fmt.Errorf("persist: page %d out of range (%d pages)", i, s.numPages)
	}
	off := s.firstOff + int64(i)*storage.PageSize
	if _, err := s.f.ReadAt(dst, off); err != nil {
		return fmt.Errorf("persist: reading page %d: %w", i, err)
	}
	return nil
}

func (s *fileSource) ReadPages(lo int, bufs [][]byte) error {
	if lo < 0 || len(bufs) < 1 || lo+len(bufs) > s.numPages {
		return fmt.Errorf("persist: page range [%d,%d) out of range (%d pages)",
			lo, lo+len(bufs), s.numPages)
	}
	off := s.firstOff + int64(lo)*storage.PageSize
	if err := s.readVec(off, bufs); err != nil {
		return fmt.Errorf("persist: reading pages [%d,%d): %w", lo, lo+len(bufs), err)
	}
	return nil
}
