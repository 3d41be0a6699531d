//go:build !linux

package persist

// readVec reads a window one positioned read per page: without preadv
// there is no single call that scatters a span into separate frames.
func (s *fileSource) readVec(off int64, bufs [][]byte) error {
	for _, b := range bufs {
		if _, err := s.f.ReadAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}
