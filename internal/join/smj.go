package join

import (
	"sort"

	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// The (provider-id, payload) sort-run tuples and their accounted widths. A
// provider tuple is accounted with its name, which nothing reads: the run
// holds the rids alone.
const (
	provTupleBytes = 8 + 16 // rid + name
	patTupleBytes  = 8 + 4  // pcp rid + age
)

type patTuple struct {
	pcp storage.Rid
	age int64
}

// runSMJ is the sort-based pointer join the paper tried first and dropped:
// "We started testing sort-based algorithms but they proved to be worse
// than hash-based ones and we dropped them" (§5.1). It is implemented here
// so that claim is reproducible (experiment A1): both inputs are reduced to
// (provider-id, payload) tuples, sorted on the provider id, and merged.
//
// A run larger than the memory budget pays an external-sort pass: its
// tuples are written out and read back once, sequentially (charged as
// temp-file I/O), before merging.
func runSMJ(env *Env, q Query) (*Result, error) {
	db := env.DB
	ai, err := attrs(env)
	if err != nil {
		return nil, err
	}
	upinIdx, err := indexOrErr(env, env.Parent.Name, env.ParentKeyAttr)
	if err != nil {
		return nil, err
	}
	mrnIdx, err := indexOrErr(env, env.Child.Name, env.ChildKeyAttr)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Build the provider run: the key range is chunked, and concatenating
	// the chunks' partial runs in chunk order reproduces the sequential
	// scan's key order exactly (the sort below re-orders on rid anyway).
	provRanges := chunkScan(1, q.K2, 1)
	provParts := make([][]storage.Rid, len(provRanges))
	err = db.RunChunks(len(provRanges), func(w *engine.Session, c int) error {
		sc := w.Borrow()
		defer w.Return(sc)
		f := w.Handles.Fetcher()
		return scanBatches(w, sc, upinIdx, provRanges[c], func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.Counters
			for _, e := range entries {
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				if err := object.CheckAttr(cls, rec, ai.provName); err != nil {
					return false, err
				}
				ch.HandleGets++
				ch.AttrGets++
				ch.HandleUnrefs++
				provParts[c] = append(provParts[c], e.Rid)
			}
			w.Meter.N.Add(ch)
			return true, nil
		})
	})
	if err != nil {
		return nil, err
	}
	var provRun []storage.Rid
	for _, p := range provParts {
		provRun = append(provRun, p...)
	}

	// Build the patient run, chunked the same way.
	patRanges := chunkScan(1, q.K1, 1)
	patParts := make([][]patTuple, len(patRanges))
	err = db.RunChunks(len(patRanges), func(w *engine.Session, c int) error {
		sc := w.Borrow()
		defer w.Return(sc)
		f := w.Handles.Fetcher()
		return scanBatches(w, sc, mrnIdx, patRanges[c], func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.Counters
			for _, e := range entries {
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				pcpV, err := object.DecodeAttr(cls, rec, ai.patPcp)
				if err != nil {
					return false, err
				}
				ageV, err := object.DecodeAttr(cls, rec, ai.patAge)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				ch.AttrGets += 2
				ch.HandleUnrefs++
				patParts[c] = append(patParts[c], patTuple{pcpV.Ref, ageV.Int})
			}
			w.Meter.N.Add(ch)
			return true, nil
		})
	})
	if err != nil {
		return nil, err
	}
	var patRun []patTuple
	for _, p := range patParts {
		patRun = append(patRun, p...)
	}

	smjMerge(db, res, provRun, patRun)
	return res, nil
}

// smjMerge is the single sequential tail of the SMJ pipeline — sort, spill
// and merge — charged to the session meter after the chunk meters merged
// into it (the scalar reference in scalar_test.go shares it verbatim).
func smjMerge(db *engine.Database, res *Result, provRun []storage.Rid, patRun []patTuple) {
	meter := db.Meter

	// spillPass charges one external-sort pass (write + read back) for a
	// run of n tuples when it exceeds the budget.
	spillPass := func(n int, tupleBytes int) bool {
		bytes := int64(n) * int64(tupleBytes)
		if bytes <= db.Machine.HashBudget {
			return false
		}
		pages := (bytes + storage.PageSize - 1) / storage.PageSize
		for i := int64(0); i < pages; i++ {
			meter.DiskWrite()
		}
		for i := int64(0); i < pages; i++ {
			meter.DiskRead()
		}
		return true
	}

	// Sort both runs on the provider id. Sorting charges n·log n compares
	// plus the external pass when a run outgrows memory.
	meter.Sort(int64(len(provRun)))
	spilledProv := spillPass(len(provRun), provTupleBytes)
	sort.Slice(provRun, func(i, j int) bool { return provRun[i].Less(provRun[j]) })
	meter.Sort(int64(len(patRun)))
	spilledPat := spillPass(len(patRun), patTupleBytes)
	sort.Slice(patRun, func(i, j int) bool { return patRun[i].pcp.Less(patRun[j].pcp) })
	res.Swapped = spilledProv || spilledPat
	res.HashTableBytes = int64(len(provRun))*provTupleBytes + int64(len(patRun))*patTupleBytes

	// Merge. Providers are unique on rid; patients may repeat one.
	pi := 0
	for _, pt := range patRun {
		for pi < len(provRun) && provRun[pi].Less(pt.pcp) {
			meter.Compare()
			pi++
		}
		meter.Compare()
		if pi < len(provRun) && provRun[pi] == pt.pcp {
			emit(meter, res)
		}
	}
}
