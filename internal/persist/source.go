package persist

import (
	"fmt"
	"io"
	"os"
	"sync"
	"unsafe"

	"treebench/internal/storage"
)

// fileSource is the bufpool.Source over a snapshot file's page image: one
// page per positioned read on a plain miss, one readahead window per
// system call on a sequential one. How a window is read from a file is
// decided here and nowhere else: preadv(2) scatters it straight into the
// pool's frames on Linux (source_linux.go); under O_DIRECT, and on
// platforms without preadv, one staged read is followed by a copy per
// page (readStaged). The file handle lives as long as the snapshot (the
// OS reclaims it at exit; snapshots have no close protocol, matching
// every other shareable object in the system).
type fileSource struct {
	f        *os.File
	firstOff int64 // offset of the first raw page
	numPages int
	direct   bool // f was opened O_DIRECT; every read stages through aligned scratch
}

func (s *fileSource) ReadPage(i int, dst []byte) error {
	if i < 0 || i >= s.numPages {
		return fmt.Errorf("persist: page %d out of range (%d pages)", i, s.numPages)
	}
	off := s.firstOff + int64(i)*storage.PageSize
	var err error
	if s.direct {
		err = s.readStaged(off, dst)
	} else {
		_, err = s.f.ReadAt(dst, off)
	}
	if err != nil {
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
	var err error
	if s.direct {
		err = s.readStaged(off, bufs...)
	} else {
		err = s.readVec(off, bufs)
	}
	if err != nil {
		return fmt.Errorf("persist: reading pages [%d,%d): %w", lo, lo+len(bufs), err)
	}
	return nil
}

// O_DIRECT transfers must be aligned — file offset, length, and the
// user buffer all on a logical-block boundary. 4096 satisfies every
// filesystem in practice (512 is the historical minimum; modern NVMe
// and virtio devices want 4096 anyway).
const directAlign = 4096

// readStaged fills bufs with the contiguous file span starting at off:
// widen the span to directAlign boundaries, read it once into aligned
// scratch, copy each buffer's share out. O_DIRECT needs it — the pool's
// frames are ordinary heap slices with no alignment guarantee, so preadv
// is off the table — and it is the window read of platforms that have no
// preadv. The extra copy is ~0.2µs/page, noise against the ~50µs device
// latency that direct I/O exists to expose. The aligned span may extend
// past EOF; a short read that still covers the requested range is
// success.
func (s *fileSource) readStaged(off int64, bufs ...[]byte) error {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	lo := off &^ (directAlign - 1)
	hi := (off + int64(total) + directAlign - 1) &^ (directAlign - 1)
	sb := getScratch(int(hi - lo))
	defer scratch.Put(sb)
	buf := (*sb)[:hi-lo]
	n, err := s.f.ReadAt(buf, lo)
	if err != nil && !(err == io.EOF && int64(n) >= off-lo+int64(total)) {
		return err
	}
	src := buf[off-lo:]
	for _, b := range bufs {
		src = src[copy(b, src):]
	}
	return nil
}

// scratch recycles staging buffers (*[]byte, directAlign-aligned), so a
// long cold scan does not churn one window of garbage per window.
var scratch sync.Pool

func getScratch(n int) *[]byte {
	if v := scratch.Get(); v != nil {
		if b := v.(*[]byte); len(*b) >= n {
			return b
		}
	}
	// Over-allocate so a directAlign-aligned window can be sliced out.
	raw := make([]byte, n+directAlign)
	off := -int(uintptr(unsafe.Pointer(&raw[0]))) & (directAlign - 1)
	b := raw[off : off+n]
	return &b
}
