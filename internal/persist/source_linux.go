//go:build linux

package persist

import (
	"fmt"
	"io"
	"syscall"
	"unsafe"
)

// readVec fills bufs with the contiguous file span starting at off in
// one preadv(2): a whole readahead window lands directly in the pool's
// page frames — a single system call and no staging copy, which is what
// makes readahead pay off even when the file is already in the OS page
// cache (the win is syscall and memmove amortization, not disk latency).
func (s *fileSource) readVec(off int64, bufs [][]byte) error {
	sc, err := s.f.SyscallConn()
	if err != nil {
		return err
	}
	iov := make([]syscall.Iovec, len(bufs))
	for i, b := range bufs {
		if len(b) == 0 {
			return fmt.Errorf("preadv: empty buffer at index %d", i)
		}
		iov[i].Base = &b[0]
		iov[i].SetLen(len(b))
	}
	var rerr error
	cerr := sc.Read(func(fd uintptr) bool {
		for len(iov) > 0 {
			offLo, offHi := offsetSplit(off)
			n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd,
				uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)), offLo, offHi, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno != 0 {
				rerr = errno
				return true
			}
			if n == 0 {
				rerr = io.ErrUnexpectedEOF
				return true
			}
			off += int64(n)
			// Advance the iovec list past the n bytes just read (short
			// reads are legal; resume at the partial buffer).
			for n > 0 && len(iov) > 0 {
				l := uintptr(iov[0].Len)
				if n >= l {
					n -= l
					iov = iov[1:]
					continue
				}
				iov[0].Base = (*byte)(unsafe.Add(unsafe.Pointer(iov[0].Base), n))
				iov[0].SetLen(int(l - n))
				n = 0
			}
		}
		return true
	})
	if cerr != nil {
		return cerr
	}
	return rerr
}

// offsetSplit splits a file offset into the two unsigned-long halves
// preadv's raw syscall interface wants: the full offset in the low word
// on 64-bit platforms, a 32/32 split on 32-bit ones.
func offsetSplit(off int64) (lo, hi uintptr) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		return uintptr(off), 0
	}
	return uintptr(uint32(off)), uintptr(uint64(off) >> 32)
}
