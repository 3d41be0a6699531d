package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"treebench/internal/object"
	"treebench/internal/storage"
)

// scanScores reads every item's score through a fresh fork of sn and
// returns them in rid order — the reader-visible table content.
func scanScores(t *testing.T, sn *Snapshot, rids []storage.Rid) []int64 {
	t.Helper()
	db := sn.Fork()
	out := make([]int64, len(rids))
	for i, rid := range rids {
		h, err := db.Handles.Get(rid)
		if err != nil {
			t.Fatalf("get %v: %v", rid, err)
		}
		v, err := db.Handles.AttrByName(h, "score")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v.Int
	}
	return out
}

// commit enters db, a mutable fork of parent, into the chain the way
// persist.ChainStore.Update does: Publish, SetLineage, Append.
func commit(c *Chain, db *Session, parent *Snapshot) (*Snapshot, *storage.Delta, error) {
	sn, d, err := db.Publish()
	if err != nil {
		return nil, nil, err
	}
	sn.SetLineage(parent.Version()+1, d.Pages(), 0)
	return sn, d, c.Append(sn)
}

// commitBump forks the chain head mutably, adds delta to every item's
// score, and commits it as the next version.
func commitBump(t *testing.T, c *Chain, rids []storage.Rid, delta int64) *Snapshot {
	t.Helper()
	parent := c.Head()
	db := parent.ForkMutable()
	e, err := db.Extent("Items")
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		h, err := db.Handles.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		v, err := db.Handles.AttrByName(h, "score")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.UpdateAttr(nil, e, rid, "score", object.IntValue(v.Int+delta)); err != nil {
			t.Fatal(err)
		}
	}
	sn, d, err := commit(c, db, parent)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if d.Pages() == 0 {
		t.Fatal("commit carried no pages")
	}
	return sn
}

func TestChainCommit(t *testing.T) {
	root, rids := buildSnapshot(t, 40)
	c := NewChain(root)
	before := scanScores(t, root, rids)

	v1 := commitBump(t, c, rids, 100)
	if v1.Version() != 1 || v1.ParentVersion() != 0 {
		t.Fatalf("v1 lineage = %d over %d", v1.Version(), v1.ParentVersion())
	}
	if c.Head() != v1 {
		t.Fatal("head not advanced")
	}
	after := scanScores(t, c.Head(), rids)
	for i := range before {
		if after[i] != before[i]+100 {
			t.Fatalf("item %d score %d, want %d", i, after[i], before[i]+100)
		}
	}
	// The root version is untouched.
	again := scanScores(t, root, rids)
	for i := range before {
		if again[i] != before[i] {
			t.Fatalf("root version drifted at item %d: %d != %d", i, again[i], before[i])
		}
	}

	// A commit against a stale parent is rejected, not silently merged.
	stale := root.ForkMutable()
	e, _ := stale.Extent("Items")
	if err := stale.UpdateAttr(nil, e, rids[0], "score", object.IntValue(-1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := commit(c, stale, root); err == nil {
		t.Fatal("stale-parent commit accepted")
	}
	if c.Head() != v1 {
		t.Fatal("rejected commit replaced the head")
	}

	// Publishing a read-only fork is rejected.
	ro := c.Head().Fork()
	if _, _, err := ro.Publish(); err == nil {
		t.Fatal("published a read-only fork")
	}
}

// TestChainMVCCIsolation is the acceptance gate for reader isolation: a
// reader holds the version it read and scans it repeatedly — byte-identical
// values and byte-identical simulated meters every pass — while writers
// commit new versions concurrently. Run under -race.
func TestChainMVCCIsolation(t *testing.T) {
	root, rids := buildSnapshot(t, 60)
	c := NewChain(root)
	commitBump(t, c, rids, 100) // v1: what readers will hold

	held := c.Head()
	if held.Version() != 1 {
		t.Fatalf("held version %d", held.Version())
	}
	wantScores := scanScores(t, held, rids)
	ref := held.Fork()
	for _, rid := range rids {
		h, err := ref.Handles.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Handles.AttrByName(h, "score"); err != nil {
			t.Fatal(err)
		}
	}
	wantCounters := ref.Meter.N
	wantElapsed := ref.Meter.Elapsed()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: repeatedly cold-scan fresh forks of the held version.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				db := held.Fork()
				for i, rid := range rids {
					h, err := db.Handles.Get(rid)
					if err != nil {
						t.Errorf("held read: %v", err)
						return
					}
					v, err := db.Handles.AttrByName(h, "score")
					if err != nil || v.Int != wantScores[i] {
						t.Errorf("pass %d item %d = %d (err %v), want %d", pass, i, v.Int, err, wantScores[i])
						return
					}
				}
				if db.Meter.N != wantCounters || db.Meter.Elapsed() != wantElapsed {
					t.Errorf("pass %d meters diverged under concurrent commits:\n%+v\nvs\n%+v", pass, db.Meter.N, wantCounters)
					return
				}
			}
		}()
	}
	// Writer: a stream of commits advancing the head past the held version.
	for i := 0; i < 8; i++ {
		commitBump(t, c, rids, 1)
	}
	close(stop)
	wg.Wait()

	// The held version still reads as it did; a post-commit fork sees the
	// accumulated updates.
	for i, got := range scanScores(t, held, rids) {
		if got != wantScores[i] {
			t.Fatalf("held item %d = %d after the commits, want %d", i, got, wantScores[i])
		}
	}
	head := c.Head()
	if head.Version() != 9 || head.ParentVersion() != 8 {
		t.Fatalf("head v%d over v%d, want v9 over v8", head.Version(), head.ParentVersion())
	}
	final := scanScores(t, head, rids)
	for i := range wantScores {
		if final[i] != wantScores[i]+8 {
			t.Fatalf("head item %d = %d, want %d", i, final[i], wantScores[i]+8)
		}
	}
}

// TestSupersededVersionIsCollected: the chain keeps only its head, so a
// version that a commit superseded and no reader holds is garbage at once —
// no compaction and no call into the chain.
func TestSupersededVersionIsCollected(t *testing.T) {
	root, rids := buildSnapshot(t, 20)
	c := NewChain(root)
	finalized := make(chan struct{})
	func() {
		v1 := commitBump(t, c, rids, 1)
		runtime.SetFinalizer(v1, func(*Snapshot) { close(finalized) })
	}()
	commitBump(t, c, rids, 1) // v2 supersedes v1; the test drops v1
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-finalized:
			if c.Head().Version() != 2 || c.Head().ParentVersion() != 1 {
				t.Fatalf("head lineage v%d over v%d", c.Head().Version(), c.Head().ParentVersion())
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("superseded v1 is still reachable from the chain")
}

func TestChainReplaceHead(t *testing.T) {
	root, rids := buildSnapshot(t, 20)
	c := NewChain(root)
	commitBump(t, c, rids, 7)
	head := c.Head()
	want := scanScores(t, head, rids)

	// Stand-in for compaction: rebuild the head as a flat snapshot via
	// its canonical state over a copied page image.
	base := head.Base()
	pages := make([][]byte, base.NumPages())
	for i := range pages {
		p, err := base.Page(storage.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = append([]byte(nil), p...)
	}
	flat, err := RestoreSnapshot(storage.NewBase(pages, base.CapacityBytes()), head.State())
	if err != nil {
		t.Fatal(err)
	}
	flat.SetLineage(head.Version(), 0, 0)
	if err := c.ReplaceHead(flat); err != nil {
		t.Fatal(err)
	}
	if c.Head() != flat || c.Head().Base().Delta() != nil {
		t.Fatal("compacted head not installed")
	}
	got := scanScores(t, c.Head(), rids)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compacted head item %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Version numbering continues over the compacted image.
	commitBump(t, c, rids, 1)
	if c.Head().Version() != 2 {
		t.Fatalf("post-compaction commit version %d, want 2", c.Head().Version())
	}

	// A mismatched version is rejected.
	if err := c.ReplaceHead(root); err == nil {
		t.Fatal("ReplaceHead accepted a non-head version")
	}
}
