package cli

import (
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"

	"treebench/internal/bufpool"
	"treebench/internal/storage"
)

// TestPoolSizeBounds: there is no running without a pool, so -bufpool-mb
// below 1 is refused with a one-line error before anything is set up.
func TestPoolSizeBounds(t *testing.T) {
	t.Cleanup(func() { bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead) })
	for _, c := range []struct {
		mb int
		ok bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{8, true},
		{256, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p := PoolFlags(fs)
		if err := fs.Parse([]string{"-bufpool-mb", strconv.Itoa(c.mb)}); err != nil {
			t.Fatal(err)
		}
		err := p.Setup()
		if (err == nil) != c.ok {
			t.Errorf("-bufpool-mb %d: err = %v, want ok=%v", c.mb, err, c.ok)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("-bufpool-mb %d: error is not one line: %q", c.mb, err)
		}
		if want := int64(c.mb) << 20 / storage.PageSize; err == nil && bufpool.Active().Stats().CapacityPages != want {
			t.Errorf("-bufpool-mb %d: pool holds %d pages, want %d", c.mb, bufpool.Active().Stats().CapacityPages, want)
		}
	}
}
