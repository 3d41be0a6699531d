package bufpool

import "testing"

// poisoned fills every reused frame's buffer with poisonByte, before its
// new page is read into it, until t ends: a buffer reused while a reader
// could still hold it then reads as garbage the reader recognizes.
func poisoned(t testing.TB) {
	PoisonRecycled(true)
	t.Cleanup(func() { PoisonRecycled(false) })
}

// NewReader returns an offline reader.
func NewReader() *Reader { return new(Reader) }
