package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

func openCollect(t *testing.T, path string) (*Log, *Recovery, [][]byte) {
	t.Helper()
	var payloads [][]byte
	l, rec, err := Open(path, func(off int64, payload []byte) error {
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, rec, payloads
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	l, rec, _ := openCollect(t, path)
	if rec.Records != 0 || rec.Tail != HeaderLen || rec.Torn != nil {
		t.Fatalf("fresh log recovery = %+v", rec)
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma-gamma")}
	var offs []int64
	for _, p := range want {
		pd, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		offs = append(offs, pd.Off)
	}
	st := l.Stats()
	if st.Records != 3 || st.Bytes != uint64(len(want[0])+len(want[2])) {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2, got := openCollect(t, path)
	defer l2.Close()
	if rec2.Records != 3 || rec2.Torn != nil {
		t.Fatalf("reopen recovery = %+v", rec2)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if offs[0] != HeaderLen {
		t.Errorf("first record offset = %d, want %d", offs[0], HeaderLen)
	}
	if l2.Tail() != rec2.Tail {
		t.Errorf("Tail() = %d, recovery tail %d", l2.Tail(), rec2.Tail)
	}
}

// TestGroupCommit runs many concurrent writers through Enqueue/Wait and
// checks every record survives a reopen, in the offset order Enqueue
// assigned, with fewer fsyncs than records when batching kicked in.
func TestGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	l, _, _ := openCollect(t, path)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p, err := l.Enqueue([]byte(fmt.Sprintf("writer-%d-record-%d", w, i)))
				if err == nil {
					err = p.Wait()
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	st := l.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("records = %d, want %d", st.Records, writers*perWriter)
	}
	if st.Syncs == 0 || st.Syncs > st.Records {
		t.Fatalf("syncs = %d with %d records", st.Syncs, st.Records)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec, got := openCollect(t, path)
	defer l2.Close()
	if rec.Records != writers*perWriter || rec.Torn != nil {
		t.Fatalf("reopen recovery = %+v", rec)
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		seen[string(p)] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("recovered %d distinct records, want %d", len(seen), writers*perWriter)
	}
}

// TestTornTail damages a valid three-record log in every way a crash or
// bit rot can and checks the scan stops cleanly at the last intact
// record with a typed *TailError — no panic, no partial record.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	l, _, _ := openCollect(t, base)
	payloads := [][]byte{[]byte("first-record"), []byte("second-record"), []byte("third-record")}
	var offs []int64
	for _, p := range payloads {
		pd, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		offs = append(offs, pd.Off)
	}
	tail := l.Tail()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	valid, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	third := offs[2]
	cases := []struct {
		name        string
		mutate      func(b []byte) []byte
		wantRecords int
		wantTorn    bool
	}{
		{"intact", func(b []byte) []byte { return b }, 3, false},
		{"truncated mid header of third", func(b []byte) []byte { return b[:third+3] }, 2, true},
		{"truncated mid payload of third", func(b []byte) []byte { return b[:third+recordHeaderLen+4] }, 2, true},
		{"truncated exactly at third", func(b []byte) []byte { return b[:third] }, 2, false},
		{"flip byte in third payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[third+recordHeaderLen+2] ^= 0x40
			return c
		}, 2, true},
		{"flip byte in third crc", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[third+5] ^= 0x01
			return c
		}, 2, true},
		{"length prefix beyond file", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.BigEndian.PutUint32(c[third:], 1<<20)
			return c
		}, 2, true},
		{"length prefix beyond limit", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.BigEndian.PutUint32(c[third:], MaxRecord+1)
			return c
		}, 2, true},
		{"flip byte in second payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[offs[1]+recordHeaderLen] ^= 0x80
			return c
		}, 1, true},
		{"garbage appended past valid tail", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xde, 0xad, 0xbe)
		}, 3, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("case-%d.wal", i))
			if err := os.WriteFile(path, tc.mutate(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec, got := openCollect(t, path)
			defer l.Close()
			if rec.Records != tc.wantRecords || len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records (replayed %d), want %d", rec.Records, len(got), tc.wantRecords)
			}
			for j, p := range got {
				if !bytes.Equal(p, payloads[j]) {
					t.Errorf("record %d = %q, want %q", j, p, payloads[j])
				}
			}
			if (rec.Torn != nil) != tc.wantTorn {
				t.Fatalf("Torn = %v, want torn=%v", rec.Torn, tc.wantTorn)
			}
			if rec.Torn != nil {
				if !errors.Is(rec.Torn, ErrTorn) {
					t.Errorf("TailError does not wrap ErrTorn: %v", rec.Torn)
				}
				if rec.Torn.Offset < HeaderLen || rec.Torn.Offset > tail {
					t.Errorf("torn offset %d outside log", rec.Torn.Offset)
				}
			}
			// The torn tail was truncated: appends resume cleanly and a
			// second open sees a fully valid log.
			if _, err := l.Append([]byte("post-recovery")); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			l.Close()
			_, rec2, _ := openCollect(t, path)
			if rec2.Torn != nil || rec2.Records != tc.wantRecords+1 {
				t.Fatalf("second recovery = %+v, want %d clean records", rec2, tc.wantRecords+1)
			}
		})
	}
}

// TestBadHeader: a wrong magic or a future format version refuses to
// open with a real error instead of silently truncating the file.
func TestBadHeader(t *testing.T) {
	dir := t.TempDir()
	for name, hdr := range map[string][]byte{
		"bad magic":      {0xff, 0xff, 0xff, 0xff, 0, 0, 0, Version},
		"future version": {0x54, 0x42, 0x57, 0x4c, 0, 0, 0, Version + 1},
		"short file":     {0x54, 0x42},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, hdr, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(path, nil); err == nil {
				t.Fatalf("Open accepted %s", name)
			}
		})
	}
}

// TestOpenSyncsNewLogDir: a log Open creates is made durable, name
// included, before Open returns — its directory is fsynced once — and
// reopening an existing log syncs no directory. A directory fsync that
// fails fails the Open.
func TestOpenSyncsNewLogDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "commit.wal")
	var synced []string
	errDir := errors.New("directory fsync lost")
	var failWith error
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(d string) error {
		synced = append(synced, d)
		if failWith != nil {
			return failWith
		}
		return SyncDir(d)
	}
	for _, c := range []struct {
		name    string
		fail    error
		want    []string
		wantErr error
	}{
		{"create", nil, []string{dir}, nil},
		{"reopen", nil, nil, nil},
		{"create, directory fsync fails", errDir, []string{dir}, errDir},
	} {
		synced, failWith = nil, c.fail
		if c.fail != nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		l, _, err := Open(path, nil)
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: Open = %v, want %v", c.name, err, c.wantErr)
		}
		if err == nil {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(synced) != fmt.Sprint(c.want) {
			t.Fatalf("%s: directories synced %q, want %q", c.name, synced, c.want)
		}
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	l, _, _ := openCollect(t, path)
	defer l.Close()
	if _, err := l.Append([]byte("before checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Tail() != HeaderLen {
		t.Fatalf("tail after reset = %d", l.Tail())
	}
	if _, err := l.Append([]byte("after checkpoint")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rec, got := openCollect(t, path)
	if rec.Records != 1 || string(got[0]) != "after checkpoint" {
		t.Fatalf("post-reset recovery = %+v %q", rec, got)
	}
}

func TestClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	l, _, _ := openCollect(t, path)
	l.Close()
	if _, err := l.Enqueue([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue on closed log: %v", err)
	}
}

// FuzzOpen mirrors persist's FuzzLoadSnapshot: arbitrary bytes as a WAL
// file must never panic, and whatever Open salvages must reopen cleanly
// (recovery is idempotent because the torn tail is truncated away).
func FuzzOpen(f *testing.F) {
	seed := func(build func(l *Log)) []byte {
		dir, err := os.MkdirTemp("", "walfuzz")
		if err != nil {
			f.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "seed.wal")
		l, _, err := Open(path, nil)
		if err != nil {
			f.Fatal(err)
		}
		if build != nil {
			build(l)
		}
		l.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(nil))
	f.Add(seed(func(l *Log) {
		l.Append([]byte("one"))
		l.Append([]byte("two records in a fuzz seed"))
	}))
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x42, 0x57, 0x4c})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var n int
		l, rec, err := Open(path, func(off int64, payload []byte) error { n++; return nil })
		if err != nil {
			return // rejected outright is fine; panics are not
		}
		if n != rec.Records {
			t.Fatalf("replayed %d records, recovery says %d", n, rec.Records)
		}
		l.Close()
		_, rec2, err := Open(path, nil)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		if rec2.Torn != nil || rec2.Records != rec.Records {
			t.Fatalf("recovery not idempotent: first %+v, second %+v", rec, rec2)
		}
	})
}

// faultyFile is an *os.File whose writes and fsyncs fail on demand.
type faultyFile struct {
	*os.File
	writeErr, syncErr error
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return f.File.WriteAt(p, off)
}

func (f *faultyFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

// TestSyncReportsBatchError: Sync returns exactly what the batch it
// flushed was completed with — the write's error, else the fsync's, else
// nil — and the records' own waiters see the same.
func TestSyncReportsBatchError(t *testing.T) {
	errWrite, errSync := errors.New("disk full"), errors.New("fsync lost")
	for _, c := range []struct {
		name              string
		writeErr, syncErr error
		enqueue           int
		want              error
	}{
		{"healthy", nil, nil, 2, nil},
		{"nothing enqueued", errWrite, errSync, 0, nil},
		{"write fails", errWrite, nil, 2, errWrite},
		{"fsync fails", nil, errSync, 2, errSync},
		{"write error wins", errWrite, errSync, 1, errWrite},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "commit.wal")
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			ff := &faultyFile{File: f}
			l, _, err := OpenFile(ff, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ff.writeErr, ff.syncErr = c.writeErr, c.syncErr
			var pending []*Pending
			for i := 0; i < c.enqueue; i++ {
				p, err := l.Enqueue([]byte(fmt.Sprintf("record %d", i)))
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, p)
			}
			if err := l.Sync(); err != c.want {
				t.Fatalf("Sync = %v, want %v", err, c.want)
			}
			for i, p := range pending {
				if err := p.Wait(); err != c.want {
					t.Fatalf("record %d completed with %v, want %v", i, err, c.want)
				}
			}
			// The batch is spent either way: a second Sync has nothing to
			// flush and reports only the error a failed batch latched.
			if err := l.Sync(); !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
				t.Fatalf("second Sync = %v, want the latched %v", err, c.want)
			}
		})
	}
}

// TestFailedBatchPoisonsLog: once a batch's write or fsync fails, the file's
// end is unknown, so the log must refuse every later write — an append
// after the fault clears would otherwise land past a hole that replays as
// phantom records, or truncate an acknowledged record as a torn tail.
// Reopening replays exactly what reached the file before the fault.
func TestFailedBatchPoisonsLog(t *testing.T) {
	before, failed := []byte("before fault"), []byte("lost-13-bytes")
	appendFailed := func(l *Log) error { _, err := l.Append(failed); return err }
	for _, c := range []struct {
		name          string
		write, sync   bool
		fault         func(l *Log) error
		wantRecovered [][]byte
	}{
		{"write fails", true, false, appendFailed, [][]byte{before}},
		// The write reached the file; only its durability is unknown.
		{"fsync fails", false, true, appendFailed, [][]byte{before, failed}},
		// The truncation reached the file; appends must not resume at the
		// old tail past it.
		{"reset fsync fails", false, true, (*Log).Reset, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "commit.wal")
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			ff := &faultyFile{File: f}
			l, _, err := OpenFile(ff, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(before); err != nil {
				t.Fatal(err)
			}
			if c.write {
				ff.writeErr = syscall.EIO
			}
			if c.sync {
				ff.syncErr = syscall.EIO
			}
			if err := c.fault(l); !errors.Is(err, syscall.EIO) {
				t.Fatalf("%s under the fault = %v, want EIO", c.name, err)
			}
			ff.writeErr, ff.syncErr = nil, nil
			if _, err := l.Append([]byte("acknowledged")); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Append after the fault cleared = %v, want the latched EIO", err)
			}
			if err := l.Sync(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Sync = %v, want the latched EIO", err)
			}
			if err := l.Reset(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Reset = %v, want the latched EIO", err)
			}
			if err := l.Close(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Close = %v, want the latched EIO", err)
			}
			l2, rec, got := openCollect(t, path)
			defer l2.Close()
			if rec.Torn != nil || len(got) != len(c.wantRecovered) {
				t.Fatalf("reopen replayed %d records (torn %v), want %d", len(got), rec.Torn, len(c.wantRecovered))
			}
			for i := range got {
				if !bytes.Equal(got[i], c.wantRecovered[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], c.wantRecovered[i])
				}
			}
		})
	}
}

// TestBatchBuffersReused: flushes alternate between two retained batch
// buffers; records of every size, larger and smaller than what a buffer
// last held, must still reach the file intact and in order.
func TestBatchBuffersReused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	l, _, _ := openCollect(t, path)
	var want [][]byte
	for i, n := range []int{10, 5000, 3, 70000, 0, 4096, 1, 70001, 12} {
		p := bytes.Repeat([]byte{byte('a' + i)}, n)
		want = append(want, p)
		if i%3 == 2 { // every third record shares its flush with the next
			if _, err := l.Enqueue(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, got := openCollect(t, path)
	defer l2.Close()
	if rec.Records != len(want) || rec.Torn != nil {
		t.Fatalf("recovery = %+v, want %d records", rec, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %d bytes read back, %d written", i, len(got[i]), len(want[i]))
		}
	}
}
