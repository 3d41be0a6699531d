package engine

import (
	"testing"

	"treebench/internal/storage"
)

// touchItems is a chunk body: chunk c of n materializes every n-th item,
// which faults pages into the fork's caches and handles into its table.
func touchItems(rids []storage.Rid, n int) func(w *Session, c int) error {
	return func(w *Session, c int) error {
		for i := c; i < len(rids); i += n {
			h, err := w.Handles.Get(rids[i])
			if err != nil {
				return err
			}
			if c%2 == 0 {
				w.Handles.Unref(h) // odd chunks leave their handles live
			}
		}
		return nil
	}
}

// TestColdRestartKeepsNoWarmState pins what ColdRestart does to the chunk
// forks it retains: the same forks come back, with nothing resident at
// either cache level and no live handle, and running a chunk on one
// charges exactly what it charges a brand-new ReadFork.
func TestColdRestartKeepsNoWarmState(t *testing.T) {
	sn, rids := buildSnapshot(t, 2000)
	db := sn.Fork()
	const chunks = 4
	body := touchItems(rids, chunks)
	if err := db.RunChunks(chunks, body); err != nil {
		t.Fatal(err)
	}
	retained := append([]*Session(nil), db.chunkForks...)
	if len(retained) != chunks {
		t.Fatalf("%d chunk forks after a %d-chunk run", len(retained), chunks)
	}
	for i, f := range retained {
		if f.Client.Resident() == 0 || f.Server.Resident() == 0 {
			t.Fatalf("fork %d ran a chunk and holds no page: the test is vacuous", i)
		}
	}
	db.ColdRestart()
	for i, f := range db.chunkForks {
		if f != retained[i] {
			t.Fatalf("fork %d was replaced, not retained", i)
		}
		if f.Client.Resident() != 0 || f.Server.Resident() != 0 || f.Handles.Live() != 0 {
			t.Fatalf("fork %d is warm after ColdRestart: client %d, server %d pages, %d handles",
				i, f.Client.Resident(), f.Server.Resident(), f.Handles.Live())
		}
	}
	if err := db.RunChunks(chunks, body); err != nil {
		t.Fatal(err)
	}
	for i, f := range db.chunkForks {
		fresh := db.ReadFork()
		if err := body(fresh, i); err != nil {
			t.Fatal(err)
		}
		if got, want := f.Meter.Snapshot(), fresh.Meter.Snapshot(); got != want || f.Meter.Elapsed() != fresh.Meter.Elapsed() {
			t.Fatalf("chunk %d on a retained fork charged\n%+v (%v), on a new ReadFork\n%+v (%v)",
				i, got, f.Meter.Elapsed(), want, fresh.Meter.Elapsed())
		}
	}
}

// TestChunkForkRebindsToParent pins the other half of fork reuse: what a
// fork takes from its parent by value is taken again on every use, so a
// retained fork sees the catalog and settings its parent has now — a new
// index, a relationship, batch size, read-ahead, handle width — not those it was created under.
func TestChunkForkRebindsToParent(t *testing.T) {
	sn, _ := buildSnapshot(t, 64)
	db := sn.ForkMutable()
	items, err := db.Extent("Items")
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		err := db.RunChunks(2, func(w *Session, c int) error {
			if w == db {
				t.Errorf("%s: chunk %d ran on the parent", when, c)
			}
			if w.nextIdx != db.nextIdx || len(w.indexes) != len(db.indexes) || len(w.relationships) != len(db.relationships) ||
				w.Classes != db.Classes {
				t.Errorf("%s: chunk %d sees a stale catalog", when, c)
			}
			if w.Batch() != db.Batch() || w.indexBackend != db.indexBackend ||
				w.Client.ReadAheadBatch() != db.Client.ReadAheadBatch() || w.Meter.SlimHandles() != db.Meter.SlimHandles() {
				t.Errorf("%s: chunk %d sees stale settings", when, c)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check("new forks")
	if _, _, err := db.CreateIndex(items, "id", false); err != nil {
		t.Fatal(err)
	}
	db.relationships = append(db.relationships, &Relationship{Parent: items, Child: items})
	db.SetBatch(7)
	db.Client.SetReadAhead(16)
	db.Meter.SetSlimHandles(true)
	if err := db.SetIndexBackend("lsm"); err != nil {
		t.Fatal(err)
	}
	check("reused warm")
	db.ColdRestart()
	check("reused after ColdRestart")
}
