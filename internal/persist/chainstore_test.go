package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"treebench/internal/bufpool"
	"treebench/internal/codec"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/session"
	"treebench/internal/storage"
	"treebench/internal/wal"
)

// newChainFixture generates a small dataset, saves it as a chain base,
// and returns the store paths plus the in-memory root snapshot.
func newChainFixture(t testing.TB) (snapPath, walPath string, root *derby.Snapshot) {
	return newChainFixtureAt(t, 40, 15)
}

func newChainFixtureAt(t testing.TB, providers, avg int) (snapPath, walPath string, root *derby.Snapshot) {
	t.Helper()
	dir := t.TempDir()
	ds, err := derby.Generate(derby.DefaultConfig(providers, avg, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	root, err = ds.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	snapPath = filepath.Join(dir, "base.tbsp")
	walPath = filepath.Join(dir, "base.wal")
	if err := Save(snapPath, root); err != nil {
		t.Fatal(err)
	}
	return snapPath, walPath, root
}

// referenceHead replays n waves in memory (no WAL, no files) and returns
// the head — the oracle every durable path must match byte for byte.
func referenceHead(t *testing.T, root *derby.Snapshot, spec derby.WaveSpec, n uint64) *derby.Snapshot {
	t.Helper()
	cur := root
	for w := uint64(1); w <= n; w++ {
		d := cur.ForkMutable()
		if _, err := derby.ApplyWave(d, w, spec); err != nil {
			t.Fatalf("reference wave %d: %v", w, err)
		}
		es, _, err := d.DB.Publish()
		if err != nil {
			t.Fatalf("reference publish %d: %v", w, err)
		}
		cur = cur.WithEngine(es)
	}
	return cur
}

func mustPageEqual(t *testing.T, a, b *derby.Snapshot, what string) {
	t.Helper()
	eq, why, err := PageEqual(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("%s: %s", what, why)
	}
}

// TestCommitRecordRoundTrip: Encode∘Decode∘Apply reproduces the exact
// version the commit published.
func TestCommitRecordRoundTrip(t *testing.T) {
	_, _, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()

	// Wave 4 is a growth wave under the default spec: its relocations
	// append pages, so the record carries both overlay and appended pages.
	d := root.ForkMutable()
	if _, err := derby.ApplyWave(d, 4, spec); err != nil {
		t.Fatal(err)
	}
	es, delta, err := d.DB.Publish()
	if err != nil {
		t.Fatal(err)
	}
	committed := root.WithEngine(es)

	payload := EncodeCommit(1, 4, delta, committed.State())
	if len(payload) != cap(payload) {
		t.Fatalf("record of %d bytes built in a %d-byte buffer", len(payload), cap(payload))
	}
	var book codec.Enc
	encodeDerby(&book, committed.State())
	if full := encodeCommitFull(1, 4, delta, committed.State()); len(full)-len(payload) != len(book.B) {
		t.Fatalf("record is %d bytes, %d with the derby section, which weighs %d",
			len(payload), len(full), len(book.B))
	}
	rec, err := DecodeCommit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || rec.Wave != 4 {
		t.Fatalf("decoded version/wave = %d/%d", rec.Version, rec.Wave)
	}
	if rec.ParentPages != root.Engine.Base().NumPages() {
		t.Fatalf("parent pages = %d, want %d", rec.ParentPages, root.Engine.Base().NumPages())
	}
	if len(rec.OverlayIDs) == 0 || len(rec.AppendedPages) == 0 {
		t.Fatalf("empty delta in record: %d overlay, %d appended", len(rec.OverlayIDs), len(rec.AppendedPages))
	}
	applied, err := rec.Apply(root, 99)
	if err != nil {
		t.Fatal(err)
	}
	if applied.Engine.Version() != 1 || applied.Engine.WalOff() != 99 {
		t.Fatalf("applied lineage = v%d off %d", applied.Engine.Version(), applied.Engine.WalOff())
	}
	mustPageEqual(t, applied, committed, "applied record vs published commit")

	// Corrupt payloads parse as errors, never panics.
	if _, err := DecodeCommit(payload[:len(payload)/2]); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated record: got %v, want ErrFormat", err)
	}
	if _, err := DecodeCommit(nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("empty record: got %v, want ErrFormat", err)
	}
	// Apply against the wrong parent is rejected.
	if _, err := rec.Apply(committed, 0); !errors.Is(err, ErrFormat) {
		t.Fatalf("apply on wrong parent: got %v, want ErrFormat", err)
	}
}

// TestChainStoreRecovery: commit through the store, reopen from disk,
// and the recovered head is byte-identical to both the pre-crash head
// and an independent in-memory replay.
func TestChainStoreRecovery(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()
	const waves = 5

	s, rec, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Fatalf("fresh store replayed %d records", rec.Records)
	}
	for i := 0; i < waves; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	before := s.Head()
	st := s.Stats()
	if st.HeadVersion != waves || st.Commits != waves {
		t.Fatalf("stats after %d updates: %+v", waves, st)
	}
	if st.Wal.Records != waves || st.Wal.Syncs == 0 {
		t.Fatalf("wal stats: %+v", st.Wal)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: replay rebuilds the same head.
	s2, rec2, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Records != waves || rec2.Torn != nil {
		t.Fatalf("recovery = %+v", rec2)
	}
	after := s2.Head()
	if after.Engine.Version() != waves {
		t.Fatalf("recovered head is v%d", after.Engine.Version())
	}
	mustPageEqual(t, after, before, "recovered head vs pre-crash head")
	mustPageEqual(t, after, referenceHead(t, root, spec, waves), "recovered head vs in-memory replay")
}

// TestChainStoreTornTail: a crash mid-append loses at most the torn
// record; recovery truncates it, reports it, and the store continues
// deterministically — the rewritten wave produces the same bytes the
// torn one would have.
func TestChainStoreTornTail(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()

	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	tail := s.log.Tail()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: keep its header and half its payload.
	lastOff := prevRecordOff(t, walPath)
	if err := os.Truncate(walPath, lastOff+(tail-lastOff)/2); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Torn == nil {
		t.Fatal("torn tail not reported")
	}
	if !errors.Is(rec2.Torn, wal.ErrTorn) {
		t.Fatalf("torn error is %v", rec2.Torn)
	}
	if rec2.Records != 2 {
		t.Fatalf("replayed %d records after tear, want 2", rec2.Records)
	}
	if got := s2.Head().Engine.Version(); got != 2 {
		t.Fatalf("head after tear is v%d, want 2", got)
	}
	// Re-run the lost wave: same version, same bytes as the full run.
	if _, _, err := s2.Update(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	mustPageEqual(t, s2.Head(), referenceHead(t, root, spec, 3), "head after torn-tail replay + rewrite")
}

// prevRecordOff finds the offset of the last record in the log by
// re-scanning it (test helper; the log is small).
func prevRecordOff(t *testing.T, walPath string) int64 {
	t.Helper()
	var last int64 = wal.HeaderLen
	l, _, err := wal.Open(walPath, func(off int64, payload []byte) error {
		last = off
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return last
}

// TestChainStoreCompaction: compacting mid-chain folds the head into a
// fresh base and resets the log; the store keeps committing, survives a
// reboot, and ends byte-identical to a never-compacted replay.
func TestChainStoreCompaction(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()

	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("compacted at v%d, want 3", v)
	}
	if tail := s.log.Tail(); tail != wal.HeaderLen {
		t.Fatalf("wal not reset: tail %d", tail)
	}
	m, err := Inspect(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.Version != 3 {
		t.Fatalf("base lineage = %+v, want version 3", m.Chain)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.HeadVersion != 5 || st.BaseVersion != 3 || st.Compactions != 1 {
		t.Fatalf("stats after compaction: %+v", st)
	}
	mustPageEqual(t, s.Head(), referenceHead(t, root, spec, 5), "compacted chain vs straight replay")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot over the compacted base: only the two post-compaction
	// commits replay.
	s2, rec2, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Records != 2 {
		t.Fatalf("replayed %d records over compacted base, want 2", rec2.Records)
	}
	if got := s2.Head().Engine.Version(); got != 5 {
		t.Fatalf("rebooted head is v%d, want 5", got)
	}
	mustPageEqual(t, s2.Head(), referenceHead(t, root, spec, 5), "reboot after compaction vs straight replay")
}

// compactRounds runs rounds of Update, Update, Compact on s.
func compactRounds(t *testing.T, s *ChainStore, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for i := 0; i < 2; i++ {
			if _, _, err := s.Update(); err != nil {
				t.Fatalf("round %d: update: %v", r, err)
			}
		}
		if _, err := s.Compact(); err != nil {
			t.Fatalf("round %d: compact: %v", r, err)
		}
	}
}

// TestCompactKeepsOneImageResident: a compaction hands the head's
// resident pages to the base it loads and drops the base it replaced, so
// after ten compactions the pool holds one image of the store, the new
// head reads without a miss, and the pages it serves are the file's.
func TestCompactKeepsOneImageResident(t *testing.T) {
	snapPath, walPath, _ := newChainFixtureAt(t, 200, 50)
	bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead) // count this store's frames alone
	s, _, err := OpenChainStore(snapPath, walPath, derby.DefaultWaveSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	compactRounds(t, s, 10)

	head := s.Head()
	pool := bufpool.Active()
	n := head.Engine.Base().NumPages()
	if st := pool.Stats(); st.ResidentPages > int64(n) {
		t.Fatalf("%d frames resident for a %d-page head: %.1f images", st.ResidentPages, n, float64(st.ResidentPages)/float64(n))
	}
	before := pool.Stats().Misses
	d := head.Engine.Base().Fork()
	for p := 0; p < n; p++ {
		if _, err := d.Read(storage.PageID(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Stats().Misses - before; got != 0 {
		t.Fatalf("reading the compacted head missed %d of %d pages", got, n)
	}

	bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	fresh, err := Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	mustPageEqual(t, head, fresh, "adopted head vs the file read through a new pool")
}

// TestCompactUnderEvictionKeepsAdoptedBytes runs compactions through a
// 1 MB pool, a fraction of the image, while three goroutines run cold
// statements over the current head, with reused frames poisoned. A
// compaction's adopted frames share their buffers with the frames of the
// base it replaces, so neither may ever be reused: every buffer the head
// had resident before each compaction must keep its bytes to the end,
// while the readers' evictions reuse frames around them.
func TestCompactUnderEvictionKeepsAdoptedBytes(t *testing.T) {
	snapPath, walPath, _ := newChainFixtureAt(t, 200, 50)
	defer bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	bufpool.Setup(1, bufpool.DefaultReadahead)
	bufpool.PoisonRecycled(true)
	defer bufpool.PoisonRecycled(false)
	s, _, err := OpenChainStore(snapPath, walPath, derby.DefaultWaveSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sess := session.New(s.Head().Fork().DB)
				for _, stmt := range poolEquivStatements {
					if _, err := sess.Execute(stmt); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}

	type held struct {
		page      int
		buf, want []byte
	}
	var heldBufs []held
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ {
			if _, _, err := s.Update(); err != nil {
				t.Fatalf("round %d: update: %v", round, err)
			}
		}
		hb := s.Head().Engine.Base()
		for p := 0; p < hb.NumPages(); p++ {
			if buf, ok := hb.Resident(storage.PageID(p)); ok {
				heldBufs = append(heldBufs, held{p, buf, append([]byte(nil), buf...)})
			}
		}
		if _, err := s.Compact(); err != nil {
			t.Fatalf("round %d: compact: %v", round, err)
		}
	}
	// Let the readers evict and reuse around the last adopted frames too.
	churn := session.New(s.Head().Fork().DB)
	for i := 0; i < 3; i++ {
		for _, stmt := range poolEquivStatements {
			if _, err := churn.Execute(stmt); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, h := range heldBufs {
		if !bytes.Equal(h.buf, h.want) {
			t.Fatalf("page %d: a buffer a compaction adopted changed under eviction", h.page)
		}
	}
	st := bufpool.Active().Stats()
	if st.Adopted == 0 || st.Recycled == 0 {
		t.Fatalf("stats = %+v: want adoption and reuse both exercised", st)
	}
	bufpool.Setup(bufpool.DefaultCapacityMB, bufpool.DefaultReadahead)
	fresh, err := Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	mustPageEqual(t, s.Head(), fresh, "compacted head vs the file read through a new pool")
}

// TestCompactReleasesReplacedDescriptors: once no reader holds a
// replaced base, its file descriptor closes with it, so after ten
// compactions the store has as many descriptors open as it had at open.
func TestCompactReleasesReplacedDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	snapPath, walPath, _ := newChainFixture(t)
	dir := filepath.Dir(snapPath)
	// openInDir counts this process's descriptors on files in the store's
	// directory, a base replaced by a rename included ("… (deleted)").
	openInDir := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
				n++
			}
		}
		return n
	}
	s, _, err := OpenChainStore(snapPath, walPath, derby.DefaultWaveSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := openInDir()
	compactRounds(t, s, 10)

	// A replaced base's file closes when the collector finalizes it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		got := openInDir()
		if got <= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open in the store's directory after ten compactions, %d at open", got, want)
		}
	}
}

// TestChainStoreCompactionCrash: a crash between the base save and the
// log reset leaves both the new base AND the full log; replay must skip
// the already-folded records instead of double-applying them.
func TestChainStoreCompactionCrash(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()

	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: save the head as the new base, but "die" before
	// Reset — the log still holds all four records.
	if err := Save(snapPath, s.Head()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Records != 4 {
		t.Fatalf("scanned %d records, want 4", rec2.Records)
	}
	if got := s2.Head().Engine.Version(); got != 4 {
		t.Fatalf("head is v%d, want 4 (records must be skipped, not re-applied)", got)
	}
	if _, _, err := s2.Update(); err != nil {
		t.Fatal(err)
	}
	mustPageEqual(t, s2.Head(), referenceHead(t, root, spec, 5), "post-crash-compaction head vs straight replay")
}

// TestChainStoreConcurrentWriters: many goroutines commit concurrently;
// the serialized wave protocol makes the result identical to a single
// writer, and the group commit shares fsyncs between them.
func TestChainStoreConcurrentWriters(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()

	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, each = 4, 3
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < each; i++ {
				if _, _, err := s.Update(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	const total = writers * each
	if got := s.Head().Engine.Version(); got != total {
		t.Fatalf("head is v%d after %d commits", got, total)
	}
	st := s.Stats()
	if st.Wal.Records != total {
		t.Fatalf("wal holds %d records, want %d", st.Wal.Records, total)
	}
	if st.Wal.Syncs > st.Wal.Records {
		t.Fatalf("more syncs (%d) than records (%d)", st.Wal.Syncs, st.Wal.Records)
	}
	mustPageEqual(t, s.Head(), referenceHead(t, root, spec, total), "racing writers vs single-writer replay")
}

// dropStats strips every histogram from an exported catalog: the state of
// a version nobody primed.
func dropStats(st *engine.SnapshotState) {
	for i := range st.Extents {
		for j := range st.Extents[i].Indexes {
			st.Extents[i].Indexes[j].Stats = nil
		}
	}
}

// analyzed returns the catalog of sn with every histogram rebuilt from
// nothing: the state is restored over sn's own pages without statistics
// and primed there, so each histogram is histogram.Build over a fresh
// full scan of its index as that version's pages hold it.
func analyzed(t *testing.T, sn *engine.Snapshot) *engine.SnapshotState {
	t.Helper()
	st := sn.State()
	dropStats(st)
	fresh, err := engine.RestoreSnapshot(sn.Base(), st)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.PrimeStats(); err != nil {
		t.Fatal(err)
	}
	return fresh.State()
}

// poolGets is how many page reads the shared buffer pool has served.
func poolGets() int64 {
	st := bufpool.Active().Stats()
	return st.Hits + st.Misses
}

// TestChainHeadsBornPrimed: after every commit — growth waves and a
// compaction included — each index of the head carries a histogram, the
// inherited and the rebuilt ones alike equal to a from-scratch ANALYZE of
// that version, and a session forked from the head reads no page to get
// its statistics.
func TestChainHeadsBornPrimed(t *testing.T) {
	snapPath, walPath, _ := newChainFixture(t)
	spec := derby.DefaultWaveSpec() // waves 4 and 8 grow the schema
	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	check := func(what string) {
		t.Helper()
		head := s.Head().Engine
		got, want := head.State(), analyzed(t, head)
		indexes := 0
		for i, ex := range got.Extents {
			for j, ix := range ex.Indexes {
				indexes++
				if len(ix.Stats) == 0 {
					t.Fatalf("%s: index %s.%s is unprimed", what, ex.Name, ix.Attr)
				}
				if !reflect.DeepEqual(ix.Stats, want.Extents[i].Indexes[j].Stats) {
					t.Fatalf("%s: histogram of %s.%s differs from a fresh ANALYZE", what, ex.Name, ix.Attr)
				}
			}
		}
		if indexes < 3 {
			t.Fatalf("%s: only %d indexes checked", what, indexes)
		}
		before := poolGets()
		session.NewWith(head.Fork(), session.Config{})
		if n := poolGets() - before; n != 0 {
			t.Fatalf("%s: forking a session read %d pages; a primed head needs none", what, n)
		}
	}

	// The probe sees an ANALYZE when there is one: the root as loaded,
	// before OpenChainStore primed it, has no statistics.
	unprimed, err := Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	before := poolGets()
	session.NewWith(unprimed.Engine.Fork(), session.Config{})
	if poolGets() == before {
		t.Fatal("an unprimed fork read no pages: the probe is blind")
	}

	check("root")
	for w := 1; w <= 9; w++ {
		rep, _, err := s.Update()
		if err != nil {
			t.Fatalf("update %d: %v", w, err)
		}
		if rep.Evolved != (w%4 == 0) {
			t.Fatalf("wave %d: evolved = %v", w, rep.Evolved)
		}
		check(fmt.Sprintf("v%d", w))
		if w == 6 {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted v6")
		}
	}
}

// encodeCommitFull is EncodeCommit as it was before the derby section
// was dropped from the record: every catalog section in a buffer of its
// own, the derby bookkeeping (scale, rid maps, load report) in full. It
// is the fixture writer for logs older than the slim record.
func encodeCommitFull(version, wave uint64, delta *storage.Delta, st *derby.SnapshotState) []byte {
	var e codec.Enc
	e.U64(version)
	e.U64(wave)
	e.U32(uint32(delta.Parent().NumPages()))
	ids := delta.OverlayIDs()
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U32(uint32(id))
		e.Raw(delta.OverlayPage(id))
	}
	app := delta.Appended()
	e.U32(uint32(len(app)))
	for _, pg := range app {
		e.Raw(pg)
	}
	sub := func(fill func(*codec.Enc)) {
		var t codec.Enc
		fill(&t)
		e.U32(uint32(len(t.B)))
		e.Raw(t.B)
	}
	sub(func(t *codec.Enc) { encodeMeta(t, st.Engine) })
	sub(func(t *codec.Enc) { encodeCatalog(t, st.Engine.Files) })
	sub(func(t *codec.Enc) { encodeRegistry(t, st.Engine.Classes) })
	sub(func(t *codec.Enc) { encodeExtents(t, st.Engine) })
	sub(func(t *codec.Enc) { encodeTrees(t, st.Engine) })
	sub(func(t *codec.Enc) { encodeHistograms(t, st.Engine) })
	sub(func(t *codec.Enc) { encodeDerby(t, st) })
	sub(func(t *codec.Enc) { encodeBackends(t, st.Engine) })
	return e.B
}

// oldFormatCommit applies wave `version` to parent and returns the
// record the pre-slim writer logged for it — full derby section, no
// histograms, as that writer's heads were never primed — and the version.
func oldFormatCommit(t testing.TB, parent *derby.Snapshot, version uint64, spec derby.WaveSpec) ([]byte, *derby.Snapshot) {
	t.Helper()
	d := parent.ForkMutable()
	if _, err := derby.ApplyWave(d, version, spec); err != nil {
		t.Fatal(err)
	}
	es, delta, err := d.DB.Publish()
	if err != nil {
		t.Fatal(err)
	}
	next := parent.WithEngine(es)
	st := next.State()
	dropStats(st.Engine)
	return encodeCommitFull(version, version, delta, st), next
}

// TestOldFormatLogReplays: a log written before the record went slim —
// full derby section, unprimed catalog — decodes, applies and replays to
// a head whose whole state equals the head the current writer reaches,
// and the store goes on committing over it.
func TestOldFormatLogReplays(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()
	const waves = 5 // wave 4 grows the schema

	log, _, err := wal.Open(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := root
	for v := uint64(1); v <= waves; v++ {
		var payload []byte
		payload, cur = oldFormatCommit(t, cur, v, spec)
		if _, err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	old, rec, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if rec.Records != waves || rec.Torn != nil {
		t.Fatalf("recovery of the old-format log = %+v", rec)
	}

	livePath, liveWal, _ := newChainFixture(t)
	live, _, err := OpenChainStore(livePath, liveWal, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for i := 0; i < waves; i++ {
		if _, _, err := live.Update(); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string) {
		t.Helper()
		mustPageEqual(t, old.Head(), live.Head(), what)
		if !reflect.DeepEqual(old.Head().State(), live.Head().State()) {
			t.Fatalf("%s: catalog state differs", what)
		}
	}
	same("old-format replay vs live head")
	for _, s := range []*ChainStore{old, live} {
		if _, _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	same("one more commit over each")
}

// TestSlimLogRecoversBookkeeping: the current record carries no derby
// section, so a head recovered from the log after a crash (the store is
// dropped, never closed) must get scale, rid maps and load report from
// the base it replays over.
func TestSlimLogRecoversBookkeeping(t *testing.T) {
	snapPath, walPath, root := newChainFixture(t)
	spec := derby.DefaultWaveSpec()
	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	s2, rec, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	defer s.Close()
	if rec.Records != 5 {
		t.Fatalf("replayed %d records, want 5", rec.Records)
	}
	got, want := s2.Head().State(), root.State()
	if got.NumPatients != want.NumPatients || got.NumProviders != want.NumProviders ||
		got.Clustering != want.Clustering || got.Load != want.Load {
		t.Fatalf("recovered scale = %d×%d %v, base %d×%d %v",
			got.NumProviders, got.NumPatients, got.Clustering, want.NumProviders, want.NumPatients, want.Clustering)
	}
	if !reflect.DeepEqual(got.PatientRids, want.PatientRids) || !reflect.DeepEqual(got.ProviderRids, want.ProviderRids) {
		t.Fatal("recovered rid maps differ from the base's")
	}
	mustPageEqual(t, s2.Head(), s.Head(), "recovered head vs the head that crashed")
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

// TestCompactKeepsLogItCouldNotFlush: Compact drains the batch in flight
// before it truncates the log; when that flush fails, Compact reports
// the failure and leaves the log as it was instead of checkpointing over
// records that never reached the disk.
func TestCompactKeepsLogItCouldNotFlush(t *testing.T) {
	errWrite, errSync := errors.New("disk full"), errors.New("fsync lost")
	for _, c := range []struct {
		name              string
		writeErr, syncErr error
		want              error
	}{
		{"healthy", nil, nil, nil},
		{"write fails", errWrite, nil, errWrite},
		{"fsync fails", nil, errSync, errSync},
	} {
		t.Run(c.name, func(t *testing.T) {
			snapPath, walPath, _ := newChainFixture(t)
			s, _, err := OpenChainStore(snapPath, walPath, derby.DefaultWaveSpec())
			if err != nil {
				t.Fatal(err)
			}
			// Reopen the store's log over a file that can be made to fail.
			if err := s.log.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(walPath, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			ff := &faultyFile{File: f}
			if s.log, _, err = wal.OpenFile(ff, nil); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 2; i++ {
				if _, _, err := s.Update(); err != nil {
					t.Fatal(err)
				}
			}
			// A commit whose writer has enqueued but not yet flushed when
			// Compact takes the apply lock.
			if _, err := s.log.Enqueue([]byte("in flight")); err != nil {
				t.Fatal(err)
			}
			tail := s.log.Tail()
			ff.writeErr, ff.syncErr = c.writeErr, c.syncErr

			_, err = s.Compact()
			if !errors.Is(err, c.want) {
				t.Fatalf("Compact = %v, want %v", err, c.want)
			}
			wantTail, wantCompactions := tail, 0
			if c.want == nil {
				wantTail, wantCompactions = wal.HeaderLen, 1
			}
			if got := s.log.Tail(); got != wantTail {
				t.Fatalf("log tail after Compact = %d, want %d", got, wantTail)
			}
			if got := s.Stats().Compactions; got != wantCompactions {
				t.Fatalf("%d compactions recorded, want %d", got, wantCompactions)
			}
		})
	}
}

// effectFile is an *os.File that appends each truncate and fsync of the
// log to a shared effect list.
type effectFile struct {
	*os.File
	effects *[]string
}

func (f *effectFile) Truncate(size int64) error {
	*f.effects = append(*f.effects, "truncate log")
	return f.File.Truncate(size)
}

func (f *effectFile) Sync() error {
	*f.effects = append(*f.effects, "fsync log")
	return f.File.Sync()
}

// TestCompactSyncsDirBeforeTruncate records the order of Compact's
// durable effects. The log may be truncated only once the base that folds
// its records in is durable, name included: the rename of the new base is
// made durable by fsyncing its directory, and a truncate that can come
// first leaves a crash with the old base and an empty log — every folded
// commit lost. A directory fsync that fails stops Compact before the log
// is touched.
func TestCompactSyncsDirBeforeTruncate(t *testing.T) {
	errDir := errors.New("directory fsync lost")
	for _, c := range []struct {
		name    string
		commits int
		dirErr  error
		want    []string
	}{
		{"nothing to fold", 0, nil, nil},
		{"fold", 2, nil, []string{"fsync base dir", "truncate log", "fsync log"}},
		{"directory fsync fails", 2, errDir, []string{"fsync base dir"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			snapPath, walPath, _ := newChainFixture(t)
			s, _, err := OpenChainStore(snapPath, walPath, derby.DefaultWaveSpec())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.log.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(walPath, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			var effects []string
			if s.log, _, err = wal.OpenFile(&effectFile{File: f, effects: &effects}, nil); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < c.commits; i++ {
				if _, _, err := s.Update(); err != nil {
					t.Fatal(err)
				}
			}
			tail := s.log.Tail()
			effects = nil
			defer func(orig func(string) error) { syncDir = orig }(syncDir)
			syncDir = func(dir string) error {
				what := "fsync dir " + dir
				if dir == filepath.Dir(snapPath) {
					what = "fsync base dir"
				}
				effects = append(effects, what)
				if c.dirErr != nil {
					return c.dirErr
				}
				return wal.SyncDir(dir)
			}

			_, err = s.Compact()
			if !errors.Is(err, c.dirErr) {
				t.Fatalf("Compact = %v, want %v", err, c.dirErr)
			}
			if !reflect.DeepEqual(effects, c.want) {
				t.Fatalf("Compact's effects: %q, want %q", effects, c.want)
			}
			if c.dirErr != nil && s.log.Tail() != tail {
				t.Fatalf("log tail %d after a failed directory fsync, want %d", s.log.Tail(), tail)
			}
		})
	}
}
