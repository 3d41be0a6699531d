package join

// The handle-at-a-time operators — Figure 8's pseudo-code, literally: one
// Handles.Get / Attr / Unref and one meter call per object. They were the
// product's -batch 1 path until the batched operators took over at every
// batch size; they survive here as the reference the batched operators are
// compared against (TestBatchedJoinsMatchScalar), the way reflru_test.go
// keeps the old page LRU.

import (
	"fmt"

	"treebench/internal/collection"
	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// runScalar is Run over the reference operators.
func runScalar(env *Env, algo Algorithm, q Query) (*Result, error) {
	if env.DB.Meter.Elapsed() != 0 {
		return nil, fmt.Errorf("join: meter not reset; call ColdRestart before runScalar")
	}
	scalar := map[Algorithm]func(*Env, Query) (*Result, error){
		NL: scalarNL, PHJ: scalarPHJ, CHJ: scalarCHJ, SMJ: scalarSMJ,
	}[algo]
	if scalar == nil {
		return nil, fmt.Errorf("join: no scalar reference for %q", algo)
	}
	res, err := scalar(env, q)
	if err != nil {
		return nil, err
	}
	res.Algorithm = algo
	res.Query = q
	res.Elapsed = env.DB.Meter.Elapsed()
	res.Counters = env.DB.Meter.Snapshot()
	return res, nil
}

func scalarNL(env *Env, q Query) (*Result, error) {
	db := env.DB
	ai, err := attrs(env)
	if err != nil {
		return nil, err
	}
	upinIdx, err := indexOrErr(env, env.Parent.Name, env.ParentKeyAttr)
	if err != nil {
		return nil, err
	}
	k1 := q.K1
	res := &Result{}
	fanout := int64(1)
	if env.NumParents > 0 && env.NumChildren > env.NumParents {
		fanout = int64(env.NumChildren / env.NumParents)
	}
	ranges := chunkScan(1, q.K2, fanout)
	parts := make([]*Result, len(ranges))
	err = db.RunChunks(len(ranges), func(w *engine.Session, c int) error {
		meter := w.Meter
		part := &Result{}
		parts[c] = part
		return upinIdx.Backend.Scan(w.Client, ranges[c].Lo, ranges[c].Hi, func(e index.Entry) (bool, error) {
			ph, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			defer w.Handles.Unref(ph)
			if _, err := w.Handles.Attr(ph, ai.provName); err != nil {
				return false, err
			}
			clientsV, err := w.Handles.Attr(ph, ai.provClients)
			if err != nil {
				return false, err
			}
			return true, collection.Scan(w.Client, clientsV.Ref, func(prid storage.Rid) (bool, error) {
				pa, err := w.Handles.Get(prid)
				if err != nil {
					return false, err
				}
				defer w.Handles.Unref(pa)
				mrnV, err := w.Handles.Attr(pa, ai.patMrn)
				if err != nil {
					return false, err
				}
				meter.Compare()
				if mrnV.Int < k1 {
					if _, err := w.Handles.Attr(pa, ai.patAge); err != nil {
						return false, err
					}
					emit(meter, part)
				}
				return true, nil
			})
		})
	})
	sumTuples(res, parts)
	return res, err
}

func scalarPHJ(env *Env, q Query) (*Result, error) {
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

	// Build: index scan over providers in upin (physical) order; the hash
	// function scatters the writes across the table.
	buildRanges := chunkScan(1, q.K2, 1)
	nb := len(buildRanges)
	buildBudget := db.Machine.HashBudget / int64(nb)
	tables := make([]providerSet, nb)
	sizes := make([]int64, nb)
	err = db.RunChunks(nb, func(w *engine.Session, c int) error {
		meter := w.Meter
		region := sim.NewRegion(meter, buildBudget)
		table := make(providerSet)
		tables[c] = table
		err := upinIdx.Backend.Scan(w.Client, buildRanges[c].Lo, buildRanges[c].Hi, func(e index.Entry) (bool, error) {
			ph, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			if _, err := w.Handles.Attr(ph, ai.provName); err != nil {
				w.Handles.Unref(ph)
				return false, err
			}
			w.Handles.Unref(ph)
			meter.HashInsert()
			region.Grow(parentEntryBytes)
			region.RandomWrite()
			table[e.Rid] = struct{}{}
			return true, nil
		})
		sizes[c] = region.Size()
		return err
	})
	if err != nil {
		return nil, err
	}
	var totalSize int64
	for _, s := range sizes {
		totalSize += s
	}
	// Reported with whole-table semantics: the sum of the partitions is the
	// one table the sequential build would have grown.
	res.HashTableBytes = totalSize
	res.Swapped = totalSize > db.Machine.HashBudget
	table := tables[0]
	for _, t := range tables[1:] {
		for rid, info := range t {
			table[rid] = info
		}
	}

	// Probe: sequential scan of selected patients, random probes. The merged
	// table is read-only from here; chunks share it freely.
	probeRanges := chunkScan(1, q.K1, 1)
	parts := make([]*Result, len(probeRanges))
	err = db.RunChunks(len(probeRanges), func(w *engine.Session, c int) error {
		meter := w.Meter
		part := &Result{}
		parts[c] = part
		region := sim.NewRegion(meter, db.Machine.HashBudget)
		region.Grow(totalSize)
		return mrnIdx.Backend.Scan(w.Client, probeRanges[c].Lo, probeRanges[c].Hi, func(e index.Entry) (bool, error) {
			pa, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			defer w.Handles.Unref(pa)
			pcpV, err := w.Handles.Attr(pa, ai.patPcp)
			if err != nil {
				return false, err
			}
			meter.HashProbe()
			region.RandomRead()
			if _, ok := table[pcpV.Ref]; ok {
				if _, err := w.Handles.Attr(pa, ai.patAge); err != nil {
					return false, err
				}
				emit(meter, part)
			}
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

func scalarCHJ(env *Env, q Query) (*Result, error) {
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

	// Build: one group entry per provider present, one child entry per
	// selected patient; the groups' chunks scatter as patients arrive in
	// mrn (not provider) order.
	buildRanges := chunkScan(1, q.K1, 1)
	nb := len(buildRanges)
	buildBudget := db.Machine.HashBudget / int64(nb)
	tables := make([]map[storage.Rid][]int64, nb)
	err = db.RunChunks(nb, func(w *engine.Session, c int) error {
		meter := w.Meter
		region := sim.NewRegion(meter, buildBudget)
		table := make(map[storage.Rid][]int64) // provider rid → patient ages
		tables[c] = table
		err := mrnIdx.Backend.Scan(w.Client, buildRanges[c].Lo, buildRanges[c].Hi, func(e index.Entry) (bool, error) {
			pa, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			defer w.Handles.Unref(pa)
			pcpV, err := w.Handles.Attr(pa, ai.patPcp)
			if err != nil {
				return false, err
			}
			ageV, err := w.Handles.Attr(pa, ai.patAge)
			if err != nil {
				return false, err
			}
			meter.HashInsert()
			group, ok := table[pcpV.Ref]
			if !ok {
				region.Grow(groupEntryBytes)
			}
			region.Grow(childEntryBytes)
			region.RandomWrite()
			table[pcpV.Ref] = append(group, ageV.Int)
			return true, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	table := tables[0]
	for _, t := range tables[1:] {
		for rid, ages := range t {
			table[rid] = append(table[rid], ages...)
		}
	}
	// Report with whole-table semantics: one group entry per distinct
	// provider, as the sequential build would have grown it. The per-chunk
	// regions above over-count a group entry for each extra chunk a
	// provider's patients span; that duplication stays inside the chunks'
	// swap-fault arithmetic and out of the reported size.
	var children int64
	for _, ages := range table {
		children += int64(len(ages))
	}
	totalSize := int64(len(table))*groupEntryBytes + children*childEntryBytes
	res.HashTableBytes = totalSize
	res.Swapped = totalSize > db.Machine.HashBudget

	// Probe: sequential scan of selected providers; each group's chunks
	// are scattered across the (possibly swapped) table.
	probeRanges := chunkScan(1, q.K2, 1)
	parts := make([]*Result, len(probeRanges))
	err = db.RunChunks(len(probeRanges), func(w *engine.Session, c int) error {
		meter := w.Meter
		part := &Result{}
		parts[c] = part
		region := sim.NewRegion(meter, db.Machine.HashBudget)
		region.Grow(totalSize)
		return upinIdx.Backend.Scan(w.Client, probeRanges[c].Lo, probeRanges[c].Hi, func(e index.Entry) (bool, error) {
			meter.HashProbe()
			region.RandomRead()
			group := table[e.Rid]
			if len(group) == 0 {
				return true, nil
			}
			ph, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			defer w.Handles.Unref(ph)
			if _, err := w.Handles.Attr(ph, ai.provName); err != nil {
				return false, err
			}
			for range group {
				region.RandomRead()
				emit(meter, part)
			}
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

func scalarSMJ(env *Env, q Query) (*Result, error) {
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
	k1, k2 := q.K1, q.K2
	res := &Result{}

	// Build the provider run: the key range is chunked, and concatenating
	// the chunks' partial runs in chunk order reproduces the sequential
	// scan's key order exactly (the sort below re-orders on rid anyway).
	provRanges := chunkScan(1, k2, 1)
	provParts := make([][]storage.Rid, len(provRanges))
	err = db.RunChunks(len(provRanges), func(w *engine.Session, c int) error {
		return upinIdx.Backend.Scan(w.Client, provRanges[c].Lo, provRanges[c].Hi, func(e index.Entry) (bool, error) {
			ph, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			_, err = w.Handles.Attr(ph, ai.provName)
			w.Handles.Unref(ph)
			if err != nil {
				return false, err
			}
			provParts[c] = append(provParts[c], e.Rid)
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
	patRanges := chunkScan(1, k1, 1)
	patParts := make([][]patTuple, len(patRanges))
	err = db.RunChunks(len(patRanges), func(w *engine.Session, c int) error {
		return mrnIdx.Backend.Scan(w.Client, patRanges[c].Lo, patRanges[c].Hi, func(e index.Entry) (bool, error) {
			pa, err := w.Handles.Get(e.Rid)
			if err != nil {
				return false, err
			}
			defer w.Handles.Unref(pa)
			pcpV, err := w.Handles.Attr(pa, ai.patPcp)
			if err != nil {
				return false, err
			}
			ageV, err := w.Handles.Attr(pa, ai.patAge)
			if err != nil {
				return false, err
			}
			patParts[c] = append(patParts[c], patTuple{pcpV.Ref, ageV.Int})
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
