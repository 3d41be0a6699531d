package backend

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"treebench/internal/index"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// lsm is the log-structured merge backend: writes land in a sorted
// in-memory memtable and cost no page I/O at all (write absorption);
// every memtableCap-th record the memtable flushes to an immutable
// tier-0 SSTable, and whenever compactionFanout tables share a tier the
// oldest four merge into one table a tier up. Reads pay for that
// absorption — a point lookup may consult the memtable and every table
// — except where a bloom filter proves a table cannot contain the key
// and its pages are skipped for the price of a hash probe.
//
// Determinism rules (the repo-wide invariant): flushes trigger on entry
// count and compactions on table count — never on wall clock, sizes in
// bytes, or anything a scheduler could perturb — so the structure after
// N update waves is a pure function of the wave spec and N. Compaction
// I/O flows through the pager of the mutation that tripped it: the wave
// that causes a merge is the wave that pays for it.
//
// Fork semantics: Clone is only ever called on a frozen snapshot's
// backend (read-only by the engine's guard), shares the memtable slice
// zero-copy and marks the clone copy-on-write; the first mutation on a
// mutable fork copies the memtable (≤ memtableCap records), never the
// tables — those are immutable and their pages COW at the storage
// layer.
type lsm struct {
	id   uint32
	name string
	n    int    // live entries, net of tombstones
	seq  uint32 // next SSTable sequence number

	mem       []sstEntry // sorted by (key, rid); one record per (key, rid)
	memShared bool       // set on clones: copy before first mutation

	tables []*sstable // seq-ascending (oldest first)

	ctr *counters
}

const (
	// memtableCap is the flush threshold in records. 1024 absorbs ~21
	// default update waves (48 index maintenance records each) per
	// flushed page run.
	memtableCap = 1024
	// compactionFanout is the size-tiered merge width.
	compactionFanout = 4
)

func newLSM(id uint32, name string) *lsm {
	return &lsm{id: id, name: name, ctr: &counters{}}
}

func buildLSM(p storage.Pager, id uint32, name string, entries []index.Entry) (*lsm, error) {
	l := newLSM(id, name)
	if len(entries) == 0 {
		return l, nil
	}
	recs := make([]sstEntry, len(entries))
	for i, e := range entries {
		recs[i] = sstEntry{key: e.Key, rid: e.Rid}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].less(recs[j]) })
	tab, err := writeSSTable(p, recs, l.seq, 0, l.ctr)
	if err != nil {
		return nil, err
	}
	l.seq++
	l.tables = append(l.tables, tab)
	l.n = len(recs)
	return l, nil
}

func restoreLSM(st index.BackendState, numPages int) (*lsm, error) {
	ls := st.LSM
	if ls == nil {
		return nil, fmt.Errorf("backend: lsm state for %q has no lsm section", st.Kind)
	}
	l := &lsm{id: ls.ID, name: ls.Name, n: ls.Len, seq: ls.Seq, ctr: &counters{}}
	if l.n < 0 {
		return nil, fmt.Errorf("backend: %s has impossible entry count %d", l.name, l.n)
	}
	for i, m := range ls.Mem {
		rec := sstEntry{key: m.Key, rid: m.Rid, tomb: m.Tomb}
		if i > 0 && !l.mem[i-1].less(rec) {
			return nil, fmt.Errorf("backend: %s memtable out of order at %d", l.name, i)
		}
		l.mem = append(l.mem, rec)
	}
	for _, ts := range ls.Tabs {
		if ts.Pages < 1 || ts.Count < 1 || ts.MinKey > ts.MaxKey ||
			len(ts.Fences) != ts.Pages || len(ts.Bloom) == 0 {
			return nil, fmt.Errorf("backend: %s sstable %d has impossible shape", l.name, ts.Seq)
		}
		if int(ts.Start)+ts.Pages > numPages {
			return nil, fmt.Errorf("backend: %s sstable %d pages %d..%d beyond image (%d pages)",
				l.name, ts.Seq, ts.Start, int(ts.Start)+ts.Pages, numPages)
		}
		if ts.Seq >= l.seq {
			return nil, fmt.Errorf("backend: %s sstable seq %d not below next seq %d", l.name, ts.Seq, l.seq)
		}
		tab := &sstable{
			seq: ts.Seq, tier: ts.Tier, start: ts.Start, pages: ts.Pages, count: ts.Count,
			minKey: ts.MinKey, maxKey: ts.MaxKey, fences: ts.Fences, filter: restoreBloom(ts.Bloom),
		}
		if len(l.tables) > 0 && l.tables[len(l.tables)-1].seq >= tab.seq {
			return nil, fmt.Errorf("backend: %s sstables out of sequence order", l.name)
		}
		l.tables = append(l.tables, tab)
	}
	return l, nil
}

func (l *lsm) Kind() string { return KindLSM }
func (l *lsm) ID() uint32   { return l.id }
func (l *lsm) Name() string { return l.name }
func (l *lsm) Len() int     { return l.n }

func (l *lsm) Pages() int {
	n := 0
	for _, t := range l.tables {
		n += t.pages
	}
	return n
}

// chargeSearch bills a binary search over n elements as its comparison
// count. The B+-tree oracle charges nothing CPU-wise inside the index —
// its node searches ride on the page reads — but the LSM's memtable has
// no pages to pay for, so its searches are accounted explicitly.
func chargeSearch(p storage.Pager, n int) {
	if n <= 0 {
		return
	}
	if m := index.MeterOf(p); m != nil {
		m.Compares(int64(bits.Len(uint(n))))
	}
}

func chargeMeter(p storage.Pager, fn func(*sim.Meter)) {
	if m := index.MeterOf(p); m != nil {
		fn(m)
	}
}

// memFind locates rec's (key, rid) slot in the memtable: the insertion
// position and whether a record with that exact (key, rid) is there.
func (l *lsm) memFind(rec sstEntry) (int, bool) {
	pos := sort.Search(len(l.mem), func(i int) bool { return !l.mem[i].less(rec) })
	return pos, pos < len(l.mem) && l.mem[pos].same(rec)
}

// ownMem makes the memtable private before a mutation (clones share it
// copy-on-write).
func (l *lsm) ownMem() {
	if l.memShared {
		l.mem = append([]sstEntry(nil), l.mem...)
		l.memShared = false
	}
}

// memUpsert installs rec, replacing any existing record for its
// (key, rid): an insert cancels a tombstone and vice versa, so the
// memtable holds at most one verdict per (key, rid).
func (l *lsm) memUpsert(rec sstEntry) {
	l.ownMem()
	pos, found := l.memFind(rec)
	if found {
		l.mem[pos] = rec
		return
	}
	l.mem = append(l.mem, sstEntry{})
	copy(l.mem[pos+1:], l.mem[pos:])
	l.mem[pos] = rec
}

// Insert lands in the memtable only: no page is touched, which is the
// write absorption the B1 ablation measures. The flush that eventually
// realizes the I/O bills to whichever insert trips the threshold.
func (l *lsm) Insert(p storage.Pager, e index.Entry) error {
	chargeSearch(p, len(l.mem))
	l.memUpsert(sstEntry{key: e.Key, rid: e.Rid})
	l.n++
	return l.maybeFlush(p)
}

// Delete verifies the entry actually exists (a real, charged read —
// the honest price of not having the B+-tree's authoritative leaves)
// and then writes a tombstone over it.
func (l *lsm) Delete(p storage.Pager, e index.Entry) (bool, error) {
	rec := sstEntry{key: e.Key, rid: e.Rid}
	exists, err := l.contains(p, rec)
	if err != nil || !exists {
		return false, err
	}
	rec.tomb = true
	l.memUpsert(rec)
	l.n--
	return true, l.maybeFlush(p)
}

// contains reports whether a live record for rec's (key, rid) exists,
// consulting components newest-first so the most recent verdict wins.
func (l *lsm) contains(p storage.Pager, rec sstEntry) (bool, error) {
	chargeSearch(p, len(l.mem))
	if pos, found := l.memFind(rec); found {
		return !l.mem[pos].tomb, nil
	}
	for i := len(l.tables) - 1; i >= 0; i-- {
		found, hit, err := l.searchTable(p, l.tables[i], rec)
		if err != nil {
			return false, err
		}
		if found {
			return !hit.tomb, nil
		}
	}
	return false, nil
}

// searchTable point-searches one SSTable for rec's (key, rid): range
// check, bloom probe (a miss skips the table for the price of the
// probe), fence search, then targeted page reads.
func (l *lsm) searchTable(p storage.Pager, t *sstable, rec sstEntry) (bool, sstEntry, error) {
	chargeMeter(p, func(m *sim.Meter) { m.Compares(2) })
	if rec.key < t.minKey || rec.key > t.maxKey {
		return false, sstEntry{}, nil
	}
	chargeMeter(p, func(m *sim.Meter) { m.HashProbe() })
	if !t.filter.may(rec.key) {
		l.ctr.bloomMisses.Add(1)
		return false, sstEntry{}, nil
	}
	l.ctr.bloomHits.Add(1)
	l.ctr.sstablesRead.Add(1)
	chargeSearch(p, t.pages)
	for pg := t.findPage(rec.key); pg < t.pages; pg++ {
		ents, err := t.readPage(p, pg)
		if err != nil {
			return false, sstEntry{}, err
		}
		for _, e := range ents {
			if e.key > rec.key || (e.key == rec.key && rec.rid.Less(e.rid)) {
				return false, sstEntry{}, nil
			}
			if e.same(rec) {
				return true, e, nil
			}
		}
	}
	return false, sstEntry{}, nil
}

// Lookup collects the live rids for key across all components,
// newest verdict per rid winning, in ascending rid order — the exact
// sequence the B+-tree's leaf scan yields.
func (l *lsm) Lookup(p storage.Pager, key int64) ([]storage.Rid, error) {
	type verdict struct {
		rid  storage.Rid
		tomb bool
	}
	var verdicts []verdict
	record := func(rid storage.Rid, tomb bool) {
		for _, v := range verdicts {
			if v.rid == rid {
				return // an older component cannot override
			}
		}
		verdicts = append(verdicts, verdict{rid, tomb})
	}

	chargeSearch(p, len(l.mem))
	lo := sort.Search(len(l.mem), func(i int) bool { return l.mem[i].key >= key })
	for i := lo; i < len(l.mem) && l.mem[i].key == key; i++ {
		record(l.mem[i].rid, l.mem[i].tomb)
	}
	for i := len(l.tables) - 1; i >= 0; i-- {
		t := l.tables[i]
		chargeMeter(p, func(m *sim.Meter) { m.Compares(2) })
		if key < t.minKey || key > t.maxKey {
			continue
		}
		chargeMeter(p, func(m *sim.Meter) { m.HashProbe() })
		if !t.filter.may(key) {
			l.ctr.bloomMisses.Add(1)
			continue
		}
		l.ctr.bloomHits.Add(1)
		l.ctr.sstablesRead.Add(1)
		chargeSearch(p, t.pages)
	pages:
		for pg := t.findPage(key); pg < t.pages; pg++ {
			ents, err := t.readPage(p, pg)
			if err != nil {
				return nil, err
			}
			for _, e := range ents {
				if e.key > key {
					break pages
				}
				if e.key == key {
					record(e.rid, e.tomb)
				}
			}
		}
	}
	var rids []storage.Rid
	for _, v := range verdicts {
		if !v.tomb {
			rids = append(rids, v.rid)
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	return rids, nil
}

// errStopScan aborts the merge when the caller's fn asks to stop.
var errStopScan = errors.New("backend: stop scan")

// lsmCursor walks one component (memtable or SSTable) in (key, rid)
// order over [lo, hi). Table cursors load pages lazily through the
// pager, calling beforeLoad first — that is the hook ScanBatched uses
// to flush a pending batch before any component page read, so every
// batch reaches its consumer before a page read it could observe.
type lsmCursor struct {
	lo, hi int64
	cur    sstEntry
	ok     bool

	mem    []sstEntry // memtable component (nil for tables)
	memPos int

	tab     *sstable // SSTable component (nil for the memtable)
	pageIdx int
	page    []sstEntry
	pagePos int
	started bool
}

func (c *lsmCursor) next(p storage.Pager, beforeLoad func() error) error {
	c.ok = false
	if c.tab == nil {
		if c.memPos < len(c.mem) && c.mem[c.memPos].key < c.hi {
			c.cur = c.mem[c.memPos]
			c.memPos++
			c.ok = true
		}
		return nil
	}
	for {
		if c.pagePos >= len(c.page) {
			if !c.started {
				c.started = true
				c.pageIdx = c.tab.findPage(c.lo)
			}
			if c.pageIdx >= c.tab.pages {
				return nil
			}
			if err := beforeLoad(); err != nil {
				return err
			}
			ents, err := c.tab.readPage(p, c.pageIdx)
			if err != nil {
				return err
			}
			c.pageIdx++
			c.page, c.pagePos = ents, 0
			continue
		}
		e := c.page[c.pagePos]
		c.pagePos++
		if e.key < c.lo {
			continue // leading entries of the fence page
		}
		if e.key >= c.hi {
			return nil
		}
		c.cur, c.ok = e, true
		return nil
	}
}

// merge k-way merges every component over [lo, hi) in (key, rid) order,
// resolving duplicates newest-component-first and suppressing
// tombstones, and hands each surviving entry to emit. beforeLoad runs
// before every SSTable page read.
func (l *lsm) merge(p storage.Pager, lo, hi int64, beforeLoad func() error, emit func(index.Entry) error) error {
	// Cursors in recency order: memtable first, then tables newest to
	// oldest, so on a (key, rid) tie the lowest cursor index wins.
	var cursors []*lsmCursor
	if len(l.mem) > 0 {
		chargeSearch(p, len(l.mem))
		pos := sort.Search(len(l.mem), func(i int) bool { return l.mem[i].key >= lo })
		cursors = append(cursors, &lsmCursor{lo: lo, hi: hi, mem: l.mem, memPos: pos})
	}
	for i := len(l.tables) - 1; i >= 0; i-- {
		t := l.tables[i]
		chargeMeter(p, func(m *sim.Meter) { m.Compares(2) })
		if !t.overlaps(lo, hi) {
			continue
		}
		chargeSearch(p, t.pages)
		cursors = append(cursors, &lsmCursor{lo: lo, hi: hi, tab: t})
	}
	for _, c := range cursors {
		if err := c.next(p, beforeLoad); err != nil {
			return err
		}
	}
	for {
		win := -1
		for i, c := range cursors {
			if c.ok && (win < 0 || c.cur.less(cursors[win].cur)) {
				win = i
			}
		}
		if win < 0 {
			return nil
		}
		rec := cursors[win].cur
		// Consume this (key, rid) from every component; the winner (the
		// newest, thanks to cursor order) decided the verdict.
		for _, c := range cursors {
			if c.ok && c.cur.same(rec) {
				if err := c.next(p, beforeLoad); err != nil {
					return err
				}
			}
		}
		if rec.tomb {
			continue
		}
		if err := emit(index.Entry{Key: rec.key, Rid: rec.rid}); err != nil {
			return err
		}
	}
}

func (l *lsm) Scan(p storage.Pager, lo, hi int64, fn func(index.Entry) (bool, error)) error {
	return index.Scan(l, p, lo, hi, fn)
}

func (l *lsm) ScanBatched(p storage.Pager, lo, hi int64, scratch []index.Entry, fn func([]index.Entry) (bool, error)) error {
	if cap(scratch) < 1 {
		scratch = make([]index.Entry, 0, 1)
	}
	capacity, batch := cap(scratch), scratch[:0]
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		more, err := fn(batch)
		batch = batch[:0]
		if err != nil {
			return err
		}
		if !more {
			return errStopScan
		}
		return nil
	}
	err := l.merge(p, lo, hi, flush, func(e index.Entry) error {
		batch = append(batch, e)
		if len(batch) == capacity {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

func (l *lsm) MinKey(p storage.Pager) (int64, bool, error) {
	var k int64
	found := false
	err := l.Scan(p, -1<<62, 1<<62, func(e index.Entry) (bool, error) {
		k, found = e.Key, true
		return false, nil
	})
	return k, found, err
}

// MaxKey scans the whole structure: with tombstones possibly shadowing
// every component's last key there is no cheaper honest answer. The
// planner only falls back to it when histograms are missing.
func (l *lsm) MaxKey(p storage.Pager) (int64, bool, error) {
	var k int64
	found := false
	err := l.Scan(p, -1<<62, 1<<62, func(e index.Entry) (bool, error) {
		k, found = e.Key, true
		return true, nil
	})
	return k, found, err
}

func (l *lsm) maybeFlush(p storage.Pager) error {
	if len(l.mem) < memtableCap {
		return nil
	}
	return l.flush(p)
}

// flush writes the memtable as a tier-0 SSTable (tombstones included —
// they must keep shadowing older tables) and then compacts. The caller
// whose mutation tripped the threshold pays for all of it.
func (l *lsm) flush(p storage.Pager) error {
	if len(l.mem) == 0 {
		return nil
	}
	tab, err := writeSSTable(p, l.mem, l.seq, 0, l.ctr)
	if err != nil {
		return err
	}
	l.seq++
	l.tables = append(l.tables, tab)
	l.mem, l.memShared = nil, false
	return l.compact(p)
}

// compact runs size-tiered merges until no tier holds compactionFanout
// tables: the oldest four of the lowest such tier merge into one table
// a tier up. Scheduling depends only on table counts — commit counts,
// transitively — never on wall clock.
func (l *lsm) compact(p storage.Pager) error {
	for {
		tier := -1
		for _, t := range l.tables {
			n := 0
			for _, u := range l.tables {
				if u.tier == t.tier {
					n++
				}
			}
			if n >= compactionFanout && (tier < 0 || t.tier < tier) {
				tier = t.tier
			}
		}
		if tier < 0 {
			return nil
		}
		var inputs []*sstable
		for _, t := range l.tables { // seq-ascending: oldest first
			if t.tier == tier && len(inputs) < compactionFanout {
				inputs = append(inputs, t)
			}
		}
		if err := l.mergeTables(p, inputs, tier+1); err != nil {
			return err
		}
	}
}

// mergeTables reads every input page (billed to the triggering pager),
// merges newest-wins, and writes one output table at outTier. Tombstones
// drop only when the inputs are the entire table set and the memtable
// is empty — then nothing older can resurrect. Input pages become dead
// space in the page image, like the B+-tree's lazily deleted nodes.
func (l *lsm) mergeTables(p storage.Pager, inputs []*sstable, outTier int) error {
	type seqRec struct {
		rec sstEntry
		seq uint32
	}
	var all []seqRec
	for _, t := range inputs {
		for pg := 0; pg < t.pages; pg++ {
			ents, err := t.readPage(p, pg)
			if err != nil {
				return err
			}
			for _, e := range ents {
				all = append(all, seqRec{e, t.seq})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].rec.same(all[j].rec) {
			return all[i].rec.less(all[j].rec)
		}
		return all[i].seq > all[j].seq // newest verdict first within a (key, rid)
	})
	full := len(inputs) == len(l.tables) && len(l.mem) == 0
	var merged []sstEntry
	for i, r := range all {
		if i > 0 && r.rec.same(all[i-1].rec) {
			continue // older verdict for the same (key, rid)
		}
		if r.rec.tomb && full {
			continue
		}
		merged = append(merged, r.rec)
	}
	rest := l.tables[:0]
	for _, t := range l.tables {
		keep := true
		for _, in := range inputs {
			if t == in {
				keep = false
			}
		}
		if keep {
			rest = append(rest, t)
		}
	}
	l.tables = rest
	if len(merged) > 0 {
		out, err := writeSSTable(p, merged, l.seq, outTier, l.ctr)
		if err != nil {
			return err
		}
		l.seq++
		l.tables = append(l.tables, out)
	}
	l.ctr.compactions.Add(1)
	return nil
}

func (l *lsm) Validate(p storage.Pager) error {
	for i := 1; i < len(l.mem); i++ {
		if !l.mem[i-1].less(l.mem[i]) {
			return fmt.Errorf("backend: %s memtable out of order at %d", l.name, i)
		}
	}
	live := 0
	for i, t := range l.tables {
		if i > 0 && l.tables[i-1].seq >= t.seq {
			return fmt.Errorf("backend: %s tables out of sequence order at %d", l.name, i)
		}
		count := 0
		var prev sstEntry
		for pg := 0; pg < t.pages; pg++ {
			ents, err := t.readPage(p, pg)
			if err != nil {
				return fmt.Errorf("backend: %s sstable %d: %w", l.name, t.seq, err)
			}
			if len(ents) == 0 || ents[0].key != t.fences[pg] {
				return fmt.Errorf("backend: %s sstable %d page %d disagrees with fence", l.name, t.seq, pg)
			}
			if count > 0 && !prev.less(ents[0]) {
				return fmt.Errorf("backend: %s sstable %d out of order across page %d", l.name, t.seq, pg)
			}
			count += len(ents)
			prev = ents[len(ents)-1]
		}
		if count != t.count {
			return fmt.Errorf("backend: %s sstable %d holds %d records, descriptor says %d",
				l.name, t.seq, count, t.count)
		}
	}
	err := l.Scan(p, -1<<62, 1<<62, func(index.Entry) (bool, error) {
		live++
		return true, nil
	})
	if err != nil {
		return err
	}
	if live != l.n {
		return fmt.Errorf("backend: %s has %d live records, bookkeeping says %d", l.name, live, l.n)
	}
	return nil
}

// Clone shares the memtable copy-on-write and the immutable table
// descriptors outright. The receiver must be frozen (it is: the engine
// only clones snapshot catalogs, whose sessions are read-only), so
// marking just the clone shared is safe and keeps Clone write-free —
// snapshots are forked concurrently.
func (l *lsm) Clone() index.Backend {
	return &lsm{
		id: l.id, name: l.name, n: l.n, seq: l.seq,
		mem: l.mem, memShared: true,
		tables: append([]*sstable(nil), l.tables...),
		ctr:    &counters{},
	}
}

func (l *lsm) Counters() index.BackendCounters { return l.ctr.snapshot() }

func (l *lsm) State() index.BackendState {
	ls := &index.LSMState{ID: l.id, Name: l.name, Len: l.n, Seq: l.seq}
	for _, m := range l.mem {
		ls.Mem = append(ls.Mem, index.MemEntryState{Key: m.key, Rid: m.rid, Tomb: m.tomb})
	}
	for _, t := range l.tables {
		ls.Tabs = append(ls.Tabs, index.SSTableState{
			Seq: t.seq, Tier: t.tier, Start: t.start, Pages: t.pages, Count: t.count,
			MinKey: t.minKey, MaxKey: t.maxKey, Fences: t.fences, Bloom: t.filter.bits,
		})
	}
	return index.BackendState{
		Kind: KindLSM,
		// A synthesized TreeState keeps the positionally aligned trees
		// section well-formed for the LSM's slot.
		Tree: index.TreeState{ID: l.id, Name: l.name, Root: 0, Height: 1, Pages: 1, Len: l.n},
		LSM:  ls,
	}
}
