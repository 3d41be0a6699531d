package cli

import (
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"

	"treebench/internal/bufpool"
	"treebench/internal/core"
	"treebench/internal/storage"
)

// TestBatchBounds pins the two places a batch size enters from outside:
// the -batch flag is rejected out of range (0 = unset is not out of range),
// TREEBENCH_BATCH out of range falls back to the default like any other
// invalid value. Every scan chunk pre-sizes its batch to the capacity, so
// an unbounded value used to be an out-of-memory crash on the first query.
func TestBatchBounds(t *testing.T) {
	t.Setenv(core.QueryJobsEnvVar, "")
	t.Setenv(core.IndexBackendEnvVar, "")
	for _, c := range []struct {
		v        int
		flagOK   bool
		envBatch int // what Resolve returns with the flag unset and TREEBENCH_BATCH=v
	}{
		{-1, false, 0},
		{0, true, 0},
		{1, true, 1},
		{1 << 20, true, 1 << 20},
		{1<<20 + 1, false, 0},
		{4e9, false, 0},
	} {
		v := strconv.Itoa(c.v)

		t.Setenv(core.BatchEnvVar, "")
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		e := ExecFlags(fs)
		if err := fs.Parse([]string{"-batch", v}); err != nil {
			t.Fatal(err)
		}
		_, batch, _, err := e.Resolve()
		if (err == nil) != c.flagOK {
			t.Errorf("-batch %s: err = %v, want ok=%v", v, err, c.flagOK)
		}
		if err == nil && batch != c.v {
			t.Errorf("-batch %s resolved to %d", v, batch)
		}

		t.Setenv(core.BatchEnvVar, v)
		fs = flag.NewFlagSet("test", flag.ContinueOnError)
		e = ExecFlags(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if _, batch, _, err := e.Resolve(); err != nil || batch != c.envBatch {
			t.Errorf("%s=%s resolved to %d (%v), want %d", core.BatchEnvVar, v, batch, err, c.envBatch)
		}
	}
}

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
