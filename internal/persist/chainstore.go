package persist

import (
	"context"
	"fmt"
	"sync"

	"treebench/internal/bufpool"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/storage"
	"treebench/internal/wal"
)

// ChainStore is the durable write path: one base snapshot file, one WAL,
// and the live MVCC chain between them. Opening replays the WAL tail
// over the base (torn tails are truncated, records the base already
// folded in are skipped), Update appends one deterministic wave as the
// next version, and Compact folds the chain back into a fresh base file
// and resets the log.
//
// Durability protocol per commit, serialized under applyMu:
//
//	fork head → apply wave → publish delta → check deadline →
//	enqueue WAL record → stamp lineage → append to chain
//
// Wait happens outside the lock, so concurrent writers pile into the
// log's group commit: N commits, one fsync. The wave applied at version
// v is always wave v — a pure function of (spec, v) — so the head state
// after N commits is byte-identical no matter how many writers raced,
// how the log batched, or whether a crash forced replay.
type ChainStore struct {
	snapPath string
	spec     derby.WaveSpec

	chain *engine.Chain
	log   *wal.Log

	// applyMu serializes fork-apply-publish-enqueue-append; it is never
	// held across an fsync.
	applyMu sync.Mutex

	// book is the derby bookkeeping template (scale, rid maps, load
	// report) — identical across versions, rebound per snapshot. It holds
	// no engine, so no version outlives its last reader through it.
	book *derby.Snapshot

	mu          sync.Mutex
	baseVersion uint64 // version folded into the base snapshot file
	commits     uint64 // commits performed by this process
	compactions int
}

// ChainStats is a point-in-time report of the store.
type ChainStats struct {
	HeadVersion uint64
	BaseVersion uint64 // version of the on-disk base snapshot
	Versions    int    // head − base + 1: the versions since the last compaction
	Commits     uint64 // commits by this process (replayed ones excluded)
	Compactions int
	Wal         wal.Stats
	WalTail     int64
}

// OpenChainStore opens the base snapshot at snapPath and replays the WAL
// at walPath over it. The returned Recovery says how many commits were
// replayed and whether a torn tail was truncated. A fresh store is made
// by Save-ing a frozen snapshot to snapPath first; the WAL is created on
// demand.
func OpenChainStore(snapPath, walPath string, spec derby.WaveSpec) (*ChainStore, *wal.Recovery, error) {
	root, err := Load(snapPath)
	if err != nil {
		return nil, nil, err
	}
	// Every version Publish creates inherits its parent's histograms, so
	// priming the root here (a base saved straight after Freeze has none;
	// one Compact wrote has them all) means no reader ever runs ANALYZE.
	if err := root.Engine.PrimeStats(); err != nil {
		return nil, nil, err
	}
	chain := engine.NewChain(root.Engine)
	cur := root
	log, rec, err := wal.Open(walPath, func(off int64, payload []byte) error {
		r, err := DecodeCommit(payload)
		if err != nil {
			return err
		}
		if r.Version <= cur.Engine.Version() {
			// Already folded into the base by a compaction that crashed
			// before it could reset the log.
			return nil
		}
		if r.Version != cur.Engine.Version()+1 {
			return fmt.Errorf("%w: commit v%d follows v%d in the log",
				ErrFormat, r.Version, cur.Engine.Version())
		}
		next, err := r.Apply(cur, off)
		if err != nil {
			return err
		}
		// A no-op for a record Update wrote from a primed head; a log
		// from before heads were born primed carries no histograms.
		if err := next.Engine.PrimeStats(); err != nil {
			return err
		}
		if err := chain.Append(next.Engine); err != nil {
			return err
		}
		cur = next
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &ChainStore{
		snapPath:    snapPath,
		spec:        spec,
		chain:       chain,
		log:         log,
		book:        root.WithEngine(nil),
		baseVersion: root.Engine.Version(),
	}, rec, nil
}

// Head returns the current head bound to the derby bookkeeping. The
// returned snapshot is immutable and safe to fork from any goroutine, and
// holding it keeps the version alive — the MVCC reader contract: nothing
// a writer commits can reach its pages.
func (s *ChainStore) Head() *derby.Snapshot {
	return s.book.WithEngine(s.chain.Head())
}

// Update is UpdateContext with no deadline.
func (s *ChainStore) Update() (*derby.WaveReport, *derby.Snapshot, error) {
	return s.UpdateContext(context.Background())
}

// UpdateContext commits the next update wave: fork the head, apply wave
// (head.version+1), publish the delta, log it, and install the result as
// the new head. It returns once the commit record is durable (fsynced,
// possibly sharing the sync with concurrent commits). The returned
// snapshot is the newly committed version.
//
// ctx's deadline is checked once, under applyMu just before the WAL
// enqueue, never after: a commit that misses it leaves no version, and one
// whose record got into the log returns its result.
func (s *ChainStore) UpdateContext(ctx context.Context) (*derby.WaveReport, *derby.Snapshot, error) {
	s.applyMu.Lock()
	parent := s.chain.Head()
	version := parent.Version() + 1
	d := s.book.WithEngine(parent).ForkMutable()
	defer d.DB.Offline()
	rep, err := derby.ApplyWave(d, version, s.spec)
	if err != nil {
		s.applyMu.Unlock()
		return nil, nil, err
	}
	sn, delta, err := d.DB.Publish()
	if err != nil {
		s.applyMu.Unlock()
		return nil, nil, err
	}
	payload := EncodeCommit(version, version, delta, s.book.WithEngine(sn).State())
	if err := ctx.Err(); err != nil {
		s.applyMu.Unlock()
		return nil, nil, err
	}
	p, err := s.log.Enqueue(payload)
	if err != nil {
		s.applyMu.Unlock()
		return nil, nil, err
	}
	sn.SetLineage(version, delta.Pages(), p.Off)
	if err := s.chain.Append(sn); err != nil {
		s.applyMu.Unlock()
		return nil, nil, err
	}
	s.applyMu.Unlock()

	s.mu.Lock()
	s.commits++
	s.mu.Unlock()
	if err := p.Wait(); err != nil {
		return rep, nil, err
	}
	return rep, s.book.WithEngine(sn), nil
}

// Compact folds the current head into a fresh base snapshot file (saved
// atomically over snapPath), swaps the head's delta chain for the flat
// reloaded image, and resets the WAL. Readers holding old versions keep
// them; a crash between the save and the reset is safe — replay
// skips records the new base already contains. Returns the compacted
// version.
//
// Residency moves with the head: every page the head has resident — all
// of them, unless the pool evicted some, since Save just read each one —
// is adopted by the new base's pool handle before any reader can fork
// it, so the new base starts warm without a read. Once the head is
// replaced, the replaced base's frames are dropped, so the pool holds
// one image of the store however many compactions have run. A failure
// before the head is replaced drops the new handle instead.
func (s *ChainStore) Compact() (uint64, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	head := s.chain.Head()
	s.mu.Lock()
	base := s.baseVersion
	s.mu.Unlock()
	if head.Version() == base {
		return base, nil
	}
	if err := Save(s.snapPath, s.book.WithEngine(head)); err != nil {
		return 0, err
	}
	loaded, err := Load(s.snapPath)
	if err != nil {
		return 0, err
	}
	// Save streamed head.Base().Page(p) verbatim, so each resident buffer
	// holds exactly the bytes of page p of the file just loaded.
	fresh := poolHandle(loaded.Engine.Base())
	hb := head.Base()
	for p := 0; p < hb.NumPages(); p++ {
		if buf, ok := hb.Resident(storage.PageID(p)); ok {
			fresh.Adopt(p, buf)
		}
	}
	if err := s.chain.ReplaceHead(loaded.Engine); err != nil {
		fresh.Drop()
		return 0, err
	}
	defer poolHandle(hb).Drop()
	// Commits already durable are folded into the base; drain any batch
	// in flight, then checkpoint the log. applyMu keeps new enqueues out.
	// A batch that failed to reach the disk must not be truncated away as
	// if it had: the new base plus the whole log is the state replay
	// already handles (it skips the records the base folded in).
	if err := s.log.Sync(); err != nil {
		return 0, fmt.Errorf("persist: compact: wal sync: %w", err)
	}
	if err := s.log.Reset(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.baseVersion = head.Version()
	s.compactions++
	s.mu.Unlock()
	return head.Version(), nil
}

// poolHandle returns the buffer pool handle of the file under b's delta
// chain. Every base of a chain store is rooted in a file Load opened.
func poolHandle(b *storage.Base) *bufpool.Handle {
	return b.Cache().(*bufpool.Handle)
}

// Stats reports the store's counters.
func (s *ChainStore) Stats() ChainStats {
	s.mu.Lock()
	base, commits, compactions := s.baseVersion, s.commits, s.compactions
	s.mu.Unlock()
	head := s.chain.Head().Version()
	return ChainStats{
		HeadVersion: head,
		BaseVersion: base,
		Versions:    int(head-base) + 1,
		Commits:     commits,
		Compactions: compactions,
		Wal:         s.log.Stats(),
		WalTail:     s.log.Tail(),
	}
}

// Close flushes and closes the WAL. The in-memory chain stays readable.
func (s *ChainStore) Close() error { return s.log.Close() }

// PageEqual reports whether two snapshots' page images are byte-
// identical — the determinism check the smoke script and tests run
// after crash recovery.
func PageEqual(a, b *derby.Snapshot) (bool, string, error) {
	ba, bb := a.Engine.Base(), b.Engine.Base()
	if ba.NumPages() != bb.NumPages() {
		return false, fmt.Sprintf("page counts differ: %d vs %d", ba.NumPages(), bb.NumPages()), nil
	}
	for i := 0; i < ba.NumPages(); i++ {
		pa, err := ba.Page(storage.PageID(i))
		if err != nil {
			return false, "", err
		}
		pb, err := bb.Page(storage.PageID(i))
		if err != nil {
			return false, "", err
		}
		if string(pa) != string(pb) {
			return false, fmt.Sprintf("page %d differs", i), nil
		}
	}
	return true, "", nil
}
