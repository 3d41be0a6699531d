//go:build !linux

package persist

import (
	"errors"
	"os"
)

// Direct I/O is a Linux-only measurement aid; elsewhere LoadDirect
// quietly keeps the buffered handle. Without preadv, a window is read
// the staged way.
func openDirect(path string) (*os.File, error) {
	return nil, errors.New("persist: direct I/O unsupported on this platform")
}

func (s *fileSource) readVec(off int64, bufs [][]byte) error {
	return s.readStaged(off, bufs...)
}
