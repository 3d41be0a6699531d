package backend

import (
	"treebench/internal/index"
	"treebench/internal/storage"
)

// btree adapts the in-memory B+-tree to the Backend interface by pure
// delegation: it adds no page touches and no CPU charges, so a session
// on the "btree" backend reproduces the pre-refactor meters exactly —
// it is the oracle the other backends' tables are diffed against.
// Mutations run through a countingPager only to surface PagesWritten;
// the wrapper forwards every call, so the cache hierarchy charges the
// identical sequence of events.
type btree struct {
	t   *index.Tree
	ctr *counters
}

func buildBTree(p storage.Pager, id uint32, name string, entries []index.Entry) (*btree, error) {
	b := &btree{ctr: &counters{}}
	t, err := index.Build(countingPager{p, &b.ctr.pagesWritten}, id, name, entries)
	if err != nil {
		return nil, err
	}
	b.t = t
	return b, nil
}

func restoreBTree(st index.BackendState, numPages int) (*btree, error) {
	t, err := index.Restore(st.Tree, numPages)
	if err != nil {
		return nil, err
	}
	return &btree{t: t, ctr: &counters{}}, nil
}

func (b *btree) Kind() string { return KindBTree }
func (b *btree) ID() uint32   { return b.t.ID }
func (b *btree) Name() string { return b.t.Name }
func (b *btree) Len() int     { return b.t.Len() }
func (b *btree) Pages() int   { return b.t.Pages() }
func (b *btree) Height() int  { return b.t.Height() }

func (b *btree) Scan(p storage.Pager, lo, hi int64, fn func(index.Entry) (bool, error)) error {
	return b.t.Scan(p, lo, hi, fn)
}

func (b *btree) ScanBatched(p storage.Pager, lo, hi int64, scratch []index.Entry, fn func([]index.Entry) (bool, error)) error {
	return b.t.ScanBatched(p, lo, hi, scratch, fn)
}

func (b *btree) Lookup(p storage.Pager, key int64) ([]storage.Rid, error) {
	return b.t.Lookup(p, key)
}

func (b *btree) Insert(p storage.Pager, e index.Entry) error {
	return b.t.Insert(countingPager{p, &b.ctr.pagesWritten}, e)
}

func (b *btree) Delete(p storage.Pager, e index.Entry) (bool, error) {
	return b.t.Delete(countingPager{p, &b.ctr.pagesWritten}, e)
}

func (b *btree) MinKey(p storage.Pager) (int64, bool, error) { return b.t.MinKey(p) }
func (b *btree) MaxKey(p storage.Pager) (int64, bool, error) { return b.t.MaxKey(p) }
func (b *btree) Validate(p storage.Pager) error              { return b.t.Validate(p) }

func (b *btree) Clone() index.Backend {
	return &btree{t: b.t.Clone(), ctr: &counters{}}
}

func (b *btree) Counters() index.BackendCounters { return b.ctr.snapshot() }

func (b *btree) State() index.BackendState {
	return index.BackendState{Kind: KindBTree, Tree: b.t.State(), Meta: storage.InvalidPage}
}
