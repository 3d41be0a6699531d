package backend

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treebench/internal/index"
	"treebench/internal/storage"
)

func ridFor(i int) storage.Rid {
	return storage.Rid{Page: storage.PageID(i / 50), Slot: uint16(i % 50)}
}

func collect(t *testing.T, b index.Backend, p storage.Pager, lo, hi int64) []index.Entry {
	t.Helper()
	var out []index.Entry
	if err := b.Scan(p, lo, hi, func(e index.Entry) (bool, error) {
		out = append(out, e)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func collectBatched(t *testing.T, b index.Backend, p storage.Pager, lo, hi int64, cap int) []index.Entry {
	t.Helper()
	var out []index.Entry
	if err := b.ScanBatched(p, lo, hi, make([]index.Entry, 0, cap), func(batch []index.Entry) (bool, error) {
		out = append(out, batch...)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackendsMatchOracle drives every backend through the same random
// build + insert + delete history and requires identical answers from
// scans (scalar and batched, full and ranged) and lookups. The in-memory
// B+-tree is the oracle: the other two must match it entry for entry.
func TestBackendsMatchOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 1997} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			type inst struct {
				kind string
				p    storage.Pager
				b    index.Backend
			}
			rng := rand.New(rand.NewSource(seed))
			n := 2000 + rng.Intn(2000)
			built := make([]index.Entry, n)
			for i := range built {
				built[i] = index.Entry{Key: int64(rng.Intn(500)), Rid: ridFor(i)}
			}
			var insts []*inst
			for _, kind := range Kinds() {
				s := storage.NewStore(0)
				b, err := Build(kind, s.Disk, 1, "num", built)
				if err != nil {
					t.Fatalf("%s: build: %v", kind, err)
				}
				insts = append(insts, &inst{kind: kind, p: s.Disk, b: b})
			}
			// A mixed mutation history: inserts of fresh and duplicate keys,
			// deletes of live entries and of entries that never existed.
			for i := 0; i < 1500; i++ {
				k := int64(rng.Intn(600))
				switch rng.Intn(3) {
				case 0, 1:
					e := index.Entry{Key: k, Rid: ridFor(100000 + i)}
					for _, in := range insts {
						if err := in.b.Insert(in.p, e); err != nil {
							t.Fatalf("%s: insert %d: %v", in.kind, i, err)
						}
					}
				case 2:
					e := index.Entry{Key: k, Rid: ridFor(rng.Intn(n))}
					var want bool
					for j, in := range insts {
						ok, err := in.b.Delete(in.p, e)
						if err != nil {
							t.Fatalf("%s: delete %d: %v", in.kind, i, err)
						}
						if j == 0 {
							want = ok
						} else if ok != want {
							t.Fatalf("%s: delete %d = %v, oracle says %v", in.kind, i, ok, want)
						}
					}
				}
			}
			oracle := insts[0]
			wantFull := collect(t, oracle.b, oracle.p, -1<<62, 1<<62)
			for _, in := range insts[1:] {
				if err := in.b.Validate(in.p); err != nil {
					t.Fatalf("%s: validate: %v", in.kind, err)
				}
				if in.b.Len() != oracle.b.Len() {
					t.Fatalf("%s: Len = %d, oracle %d", in.kind, in.b.Len(), oracle.b.Len())
				}
				if got := collect(t, in.b, in.p, -1<<62, 1<<62); !reflect.DeepEqual(got, wantFull) {
					t.Fatalf("%s: full scan disagrees with oracle (%d vs %d entries)",
						in.kind, len(got), len(wantFull))
				}
				for _, r := range [][2]int64{{0, 50}, {100, 101}, {250, 600}, {700, 900}} {
					want := collect(t, oracle.b, oracle.p, r[0], r[1])
					if got := collect(t, in.b, in.p, r[0], r[1]); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: range [%d,%d) disagrees with oracle", in.kind, r[0], r[1])
					}
					for _, cap := range []int{1, 7, 1024} {
						if got := collectBatched(t, in.b, in.p, r[0], r[1], cap); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: batched range [%d,%d) cap %d disagrees", in.kind, r[0], r[1], cap)
						}
					}
				}
				for k := int64(0); k < 600; k += 13 {
					want, err := oracle.b.Lookup(oracle.p, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := in.b.Lookup(in.p, k)
					if err != nil {
						t.Fatalf("%s: lookup %d: %v", in.kind, k, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Lookup(%d) = %d rids, oracle %d", in.kind, k, len(got), len(want))
					}
				}
				wantMin, okMin, _ := oracle.b.MinKey(oracle.p)
				gotMin, gokMin, err := in.b.MinKey(in.p)
				if err != nil || gotMin != wantMin || gokMin != okMin {
					t.Fatalf("%s: MinKey = (%d,%v,%v), oracle (%d,%v)", in.kind, gotMin, gokMin, err, wantMin, okMin)
				}
				wantMax, okMax, _ := oracle.b.MaxKey(oracle.p)
				gotMax, gokMax, err := in.b.MaxKey(in.p)
				if err != nil || gotMax != wantMax || gokMax != okMax {
					t.Fatalf("%s: MaxKey = (%d,%v,%v), oracle (%d,%v)", in.kind, gotMax, gokMax, err, wantMax, okMax)
				}
			}
		})
	}
}

// TestScanEarlyStop pins the half-open range contract and the early-stop
// protocol on every backend.
func TestScanEarlyStop(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			s := storage.NewStore(0)
			entries := make([]index.Entry, 3000)
			for i := range entries {
				entries[i] = index.Entry{Key: int64(i), Rid: ridFor(i)}
			}
			b, err := Build(kind, s.Disk, 1, "num", entries)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			if err := b.Scan(s.Disk, 0, 3000, func(index.Entry) (bool, error) {
				count++
				return count < 10, nil
			}); err != nil {
				t.Fatal(err)
			}
			if count != 10 {
				t.Fatalf("early stop at %d", count)
			}
			if got := collect(t, b, s.Disk, 500, 500); len(got) != 0 {
				t.Fatal("empty range returned entries")
			}
			if got := collect(t, b, s.Disk, 100, 200); len(got) != 100 || got[0].Key != 100 || got[99].Key != 199 {
				t.Fatalf("range [100,200): %d entries", len(got))
			}
		})
	}
}

// TestCloneIsolation: a clone over a copy-on-write fork of the page
// image (exactly how the engine forks a snapshot into a mutable session)
// must see the original's entries, and mutations on it must not leak
// back to a read-only fork of the same frozen base.
func TestCloneIsolation(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			s := storage.NewStore(0)
			entries := make([]index.Entry, 500)
			for i := range entries {
				entries[i] = index.Entry{Key: int64(i), Rid: ridFor(i)}
			}
			b, err := Build(kind, s.Disk, 1, "num", entries)
			if err != nil {
				t.Fatal(err)
			}
			base, err := s.Disk.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			ro, mw := base.Fork(), base.ForkMutable()
			before := collect(t, b, ro, -1<<62, 1<<62)
			cl := b.Clone()
			if cl.Len() != b.Len() {
				t.Fatalf("clone Len = %d, want %d", cl.Len(), b.Len())
			}
			if got := collect(t, cl, mw, -1<<62, 1<<62); !reflect.DeepEqual(got, before) {
				t.Fatal("clone scan differs from original")
			}
			// Mutate the clone through the COW fork; the original, read
			// through the read-only fork, must be unaffected.
			for i := 0; i < 100; i++ {
				if err := cl.Insert(mw, index.Entry{Key: 1000 + int64(i), Rid: ridFor(9000 + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cl.Delete(mw, index.Entry{Key: 3, Rid: ridFor(3)}); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, b, ro, -1<<62, 1<<62); !reflect.DeepEqual(got, before) {
				t.Fatalf("%s: mutating a clone changed the original", kind)
			}
			// Counters are private per clone.
			if c := cl.Counters(); c == (index.BackendCounters{}) && kind == KindLSM {
				t.Fatal("clone mutations recorded no counters")
			}
		})
	}
}

// TestRestoreRoundTrip pins State → Restore: the restored backend over
// the same page image must answer exactly like the one that was saved,
// including LSM memtable records and tombstones that have not flushed.
func TestRestoreRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			s := storage.NewStore(0)
			entries := make([]index.Entry, 4000)
			for i := range entries {
				entries[i] = index.Entry{Key: int64(i % 700), Rid: ridFor(i)}
			}
			b, err := Build(kind, s.Disk, 1, "num", entries)
			if err != nil {
				t.Fatal(err)
			}
			// Leave unflushed state behind: inserts and a few tombstones.
			for i := 0; i < 300; i++ {
				if err := b.Insert(s.Disk, index.Entry{Key: int64(i), Rid: ridFor(50000 + i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				if _, err := b.Delete(s.Disk, index.Entry{Key: int64(i % 700), Rid: ridFor(i)}); err != nil {
					t.Fatal(err)
				}
			}
			want := collect(t, b, s.Disk, -1<<62, 1<<62)

			st := b.State()
			if st.Kind != Normalize(kind) {
				t.Fatalf("State kind = %q", st.Kind)
			}
			re, err := Restore(st, s.Disk.NumPages())
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if err := re.Validate(s.Disk); err != nil {
				t.Fatalf("restored validate: %v", err)
			}
			if re.Len() != b.Len() {
				t.Fatalf("restored Len = %d, want %d", re.Len(), b.Len())
			}
			if got := collect(t, re, s.Disk, -1<<62, 1<<62); !reflect.DeepEqual(got, want) {
				t.Fatal("restored scan differs")
			}
		})
	}
}

// TestRestoreRejectsImpossibleState: serialized state arrives from
// untrusted snapshot files; structural impossibilities must error, never
// panic.
func TestRestoreRejectsImpossibleState(t *testing.T) {
	s := storage.NewStore(0)
	entries := make([]index.Entry, 3000)
	for i := range entries {
		entries[i] = index.Entry{Key: int64(i), Rid: ridFor(i)}
	}
	b, err := Build(KindLSM, s.Disk, 1, "num", entries)
	if err != nil {
		t.Fatal(err)
	}
	good := b.State()
	mutations := map[string]func(*index.BackendState){
		"negative len":     func(st *index.BackendState) { st.LSM.Len = -1 },
		"no lsm body":      func(st *index.BackendState) { st.LSM = nil },
		"pages beyond img": func(st *index.BackendState) { st.LSM.Tabs[0].Start = 1 << 30 },
		"fence mismatch":   func(st *index.BackendState) { st.LSM.Tabs[0].Fences = st.LSM.Tabs[0].Fences[:1] },
		"seq above next":   func(st *index.BackendState) { st.LSM.Tabs[0].Seq = st.LSM.Seq + 1 },
		"empty bloom":      func(st *index.BackendState) { st.LSM.Tabs[0].Bloom = nil },
		"unknown kind":     func(st *index.BackendState) { st.Kind = "hash" },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			st := good
			if st.LSM != nil {
				lsCopy := *st.LSM
				lsCopy.Tabs = append([]index.SSTableState(nil), st.LSM.Tabs...)
				st.LSM = &lsCopy
			}
			mutate(&st)
			if _, err := Restore(st, s.Disk.NumPages()); err == nil {
				t.Fatal("impossible state restored without error")
			}
		})
	}
}

// TestCompactionDeterminism: the LSM structure after N mutations is a
// pure function of the mutation sequence — same flush points, same
// compactions, same serialized state — never of wall clock or scheduling.
func TestCompactionDeterminism(t *testing.T) {
	run := func() (index.BackendState, index.BackendCounters) {
		s := storage.NewStore(0)
		b, err := Build(KindLSM, s.Disk, 1, "num", nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 6000; i++ {
			if err := b.Insert(s.Disk, index.Entry{Key: int64(rng.Intn(10000)), Rid: ridFor(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return b.State(), b.Counters()
	}
	st1, c1 := run()
	st2, c2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("identical mutation sequences produced different LSM state")
	}
	if c1 != c2 {
		t.Fatalf("identical mutation sequences produced different counters: %+v vs %+v", c1, c2)
	}
	if c1.Compactions < 1 {
		t.Fatalf("6000 inserts tripped %d compactions, want at least 1", c1.Compactions)
	}
}

// TestBloomSkipGate is the enforced bloom-savings gate: on a point-lookup
// workload over a multi-table LSM, at least half of the candidate
// SSTables must be skipped by bloom probe instead of read. The numbers
// are simulated and deterministic, so the gate holds on every runner.
func TestBloomSkipGate(t *testing.T) {
	s := storage.NewStore(0)
	b, err := Build(KindLSM, s.Disk, 1, "num", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Insert even keys in a deterministic shuffle: every flushed table
	// spans the whole key range, so range checks alone cannot skip any.
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, 3000)
	for i := range keys {
		keys[i] = int64(2 * (i + 1))
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		if err := b.Insert(s.Disk, index.Entry{Key: k, Rid: ridFor(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c0 := b.Counters()
	// The point-lookup workload: half present (even) keys, half absent
	// (odd) — the checks-for-missing-keys mix blooms exist for.
	for i := 0; i < 500; i++ {
		for _, k := range []int64{int64(2 * (i*6 + 1)), int64(2*(i*6+1)) + 1} {
			if _, err := b.Lookup(s.Disk, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := b.Counters()
	hits := c.BloomHits - c0.BloomHits
	misses := c.BloomMisses - c0.BloomMisses
	probes := hits + misses
	if probes == 0 {
		t.Fatal("no bloom probes on a multi-table lookup workload")
	}
	skip := 100 * float64(misses) / float64(probes)
	t.Logf("bloom probes: %d, skipped %d (%.0f%%), sstables read %d",
		probes, misses, skip, c.SSTablesRead-c0.SSTablesRead)
	if skip < 50 {
		t.Fatalf("bloom skip %.0f%% below the 50%% gate", skip)
	}
}

// TestCountersChargePages: SSTable writes from flushes and compactions
// must surface in PagesWritten, and a skipped table must cost a probe,
// not a read (SSTablesRead stays put when the bloom says no).
func TestCountersChargePages(t *testing.T) {
	s := storage.NewStore(0)
	b, err := Build(KindLSM, s.Disk, 1, "num", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := b.Insert(s.Disk, index.Entry{Key: int64(i), Rid: ridFor(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := b.Counters()
	if c.PagesWritten < int64(b.Pages()) {
		t.Fatalf("PagesWritten = %d, below the %d live pages", c.PagesWritten, b.Pages())
	}
	if c.Compactions < 1 {
		t.Fatalf("Compactions = %d after 5000 inserts", c.Compactions)
	}
	// An absent key far outside every range costs nothing; an absent key
	// inside the range costs probes only.
	pre := b.Counters()
	if _, err := b.Lookup(s.Disk, 1<<40); err != nil {
		t.Fatal(err)
	}
	post := b.Counters()
	if post.SSTablesRead != pre.SSTablesRead {
		t.Fatal("out-of-range lookup read an sstable")
	}
}
