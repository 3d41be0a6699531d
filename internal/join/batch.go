// Vectorized variants of the chunked join strategies: index scans deliver
// leaf-sized entry batches, record fetches go through run-reusing
// object.Fetchers, and the per-object CPU charges accumulate into one
// sim.BatchCharges delta merged per batch. The hash-region traffic
// (Grow/RandomWrite/RandomRead) stays per entry, in entry order, inside the
// batch loops — a region's swap arithmetic depends on its size at each call,
// so batching may not reorder it — which keeps every simulated number
// byte-identical to the scalar loops at any batch size.
//
// NOJOIN and VNOJOIN keep their scalar loops: NOJOIN is deliberately
// sequential (see runNOJOIN), and both navigate record-at-a-time through
// the shared handle table whose cache-hit profile is the experiment.
package join

import (
	"treebench/internal/collection"
	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// runNLBatched is runNL over provider entry batches and client rid batches.
// Provider fetches always re-read (collection chunks and patient pages
// intervene between providers); patient fetches reuse page runs within one
// collection chunk's delivery — under composition clustering that is where
// almost all of NL's per-object pager work collapses.
func runNLBatched(env *Env, q Query) (*Result, error) {
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
	bsize := db.Batch()
	ranges := chunkScan(1, q.K2, fanout)
	parts := make([]*Result, len(ranges))
	err = db.RunChunks(len(ranges), func(w *engine.Session, c int) error {
		part := &Result{}
		parts[c] = part
		pf := w.Handles.Fetcher() // providers
		cf := w.Handles.Fetcher() // patients
		prids := make([]storage.Rid, 0, bsize)
		return upinIdx.Backend.ScanBatched(w.Client, ranges[c].Lo, ranges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			var ch sim.BatchCharges
			for _, e := range entries {
				pf.Invalidate() // chunk/patient reads intervened
				prec, pcls, err := pf.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				if _, err := object.DecodeAttr(pcls, prec, ai.provName); err != nil {
					return false, err
				}
				clientsV, err := object.DecodeAttr(pcls, prec, ai.provClients)
				if err != nil {
					return false, err
				}
				ch.AttrGets += 2
				err = collection.ScanBatched(w.Client, clientsV.Ref, prids, func(prids []storage.Rid) (bool, error) {
					cf.Invalidate() // the chunk's record read intervened
					for _, prid := range prids {
						rec, cls, err := cf.Fetch(prid)
						if err != nil {
							return false, err
						}
						ch.HandleGets++
						mrnV, err := object.DecodeAttr(cls, rec, ai.patMrn)
						if err != nil {
							return false, err
						}
						ch.AttrGets++
						ch.Compares++
						if mrnV.Int < k1 {
							if _, err := object.DecodeAttr(cls, rec, ai.patAge); err != nil {
								return false, err
							}
							ch.AttrGets++
							ch.ResultAppends++
							part.Tuples++
						}
						ch.HandleUnrefs++
					}
					return true, nil
				})
				if err != nil {
					return false, err
				}
				ch.HandleUnrefs++ // the provider
			}
			w.Meter.ChargeBatch(ch)
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

// runPHJBatched is runPHJ over entry batches: build and probe each fetch
// records through a fetcher (invalidated at every delivery — a leaf read
// may have intervened) and merge one delta per batch; the region traffic
// stays per entry.
func runPHJBatched(env *Env, q Query) (*Result, error) {
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
	bsize := db.Batch()

	buildRanges := chunkScan(1, q.K2, 1)
	nb := len(buildRanges)
	buildBudget := db.Machine.HashBudget / int64(nb)
	tables := make([]map[storage.Rid]providerInfo, nb)
	sizes := make([]int64, nb)
	// Build-side broadcast under a shard mask; see the scalar PHJ build.
	err = db.RunChunksAll(nb, func(w *engine.Session, c int) error {
		region := sim.NewRegion(w.Meter, buildBudget)
		table := make(map[storage.Rid]providerInfo)
		tables[c] = table
		f := w.Handles.Fetcher()
		err := upinIdx.Backend.ScanBatched(w.Client, buildRanges[c].Lo, buildRanges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.BatchCharges
			for _, e := range entries {
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				nameV, err := object.DecodeAttr(cls, rec, ai.provName)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				ch.AttrGets++
				ch.HandleUnrefs++
				ch.HashInserts++
				region.Grow(parentEntryBytes)
				region.RandomWrite()
				table[e.Rid] = providerInfo{name: nameV.Str}
			}
			w.Meter.ChargeBatch(ch)
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
	res.HashTableBytes = totalSize
	res.Swapped = totalSize > db.Machine.HashBudget
	table := tables[0]
	for _, t := range tables[1:] {
		for rid, info := range t {
			table[rid] = info
		}
	}

	probeRanges := chunkScan(1, q.K1, 1)
	parts := make([]*Result, len(probeRanges))
	err = db.RunChunks(len(probeRanges), func(w *engine.Session, c int) error {
		part := &Result{}
		parts[c] = part
		region := sim.NewRegion(w.Meter, db.Machine.HashBudget)
		region.Grow(totalSize)
		f := w.Handles.Fetcher()
		return mrnIdx.Backend.ScanBatched(w.Client, probeRanges[c].Lo, probeRanges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.BatchCharges
			for _, e := range entries {
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				pcpV, err := object.DecodeAttr(cls, rec, ai.patPcp)
				if err != nil {
					return false, err
				}
				ch.AttrGets++
				ch.HashProbes++
				region.RandomRead()
				if _, ok := table[pcpV.Ref]; ok {
					if _, err := object.DecodeAttr(cls, rec, ai.patAge); err != nil {
						return false, err
					}
					ch.AttrGets++
					ch.ResultAppends++
					part.Tuples++
				}
				ch.HandleUnrefs++
			}
			w.Meter.ChargeBatch(ch)
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

// runCHJBatched is runCHJ over entry batches, with the same shape: batched
// record fetch and CPU accounting, per-entry region traffic, and the
// empty-group probe shortcut that skips the provider fetch entirely.
func runCHJBatched(env *Env, q Query) (*Result, error) {
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
	bsize := db.Batch()

	buildRanges := chunkScan(1, q.K1, 1)
	nb := len(buildRanges)
	buildBudget := db.Machine.HashBudget / int64(nb)
	tables := make([]map[storage.Rid][]int64, nb)
	// Build-side broadcast under a shard mask; see the scalar PHJ build.
	err = db.RunChunksAll(nb, func(w *engine.Session, c int) error {
		region := sim.NewRegion(w.Meter, buildBudget)
		table := make(map[storage.Rid][]int64)
		tables[c] = table
		f := w.Handles.Fetcher()
		return mrnIdx.Backend.ScanBatched(w.Client, buildRanges[c].Lo, buildRanges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.BatchCharges
			for _, e := range entries {
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				pcpV, err := object.DecodeAttr(cls, rec, ai.patPcp)
				if err != nil {
					return false, err
				}
				ageV, err := object.DecodeAttr(cls, rec, ai.patAge)
				if err != nil {
					return false, err
				}
				ch.AttrGets += 2
				ch.HashInserts++
				group, ok := table[pcpV.Ref]
				if !ok {
					region.Grow(groupEntryBytes)
				}
				region.Grow(childEntryBytes)
				region.RandomWrite()
				table[pcpV.Ref] = append(group, ageV.Int)
				ch.HandleUnrefs++
			}
			w.Meter.ChargeBatch(ch)
			return true, nil
		})
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
	var children int64
	for _, ages := range table {
		children += int64(len(ages))
	}
	totalSize := int64(len(table))*groupEntryBytes + children*childEntryBytes
	res.HashTableBytes = totalSize
	res.Swapped = totalSize > db.Machine.HashBudget

	probeRanges := chunkScan(1, q.K2, 1)
	parts := make([]*Result, len(probeRanges))
	err = db.RunChunks(len(probeRanges), func(w *engine.Session, c int) error {
		part := &Result{}
		parts[c] = part
		region := sim.NewRegion(w.Meter, db.Machine.HashBudget)
		region.Grow(totalSize)
		f := w.Handles.Fetcher()
		return upinIdx.Backend.ScanBatched(w.Client, probeRanges[c].Lo, probeRanges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.BatchCharges
			for _, e := range entries {
				ch.HashProbes++
				region.RandomRead()
				group := table[e.Rid]
				if len(group) == 0 {
					continue
				}
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				if _, err := object.DecodeAttr(cls, rec, ai.provName); err != nil {
					return false, err
				}
				ch.AttrGets++
				for range group {
					region.RandomRead()
					ch.ResultAppends++
					part.Tuples++
				}
				ch.HandleUnrefs++
			}
			w.Meter.ChargeBatch(ch)
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

// runSMJBatched forms the two sort runs from entry batches and hands them
// to the scalar pipeline's sequential tail (sort, spill, merge) unchanged.
func runSMJBatched(env *Env, q Query) (*Result, error) {
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
	bsize := db.Batch()

	provRanges := chunkScan(1, q.K2, 1)
	provParts := make([][]provTuple, len(provRanges))
	err = db.RunChunks(len(provRanges), func(w *engine.Session, c int) error {
		f := w.Handles.Fetcher()
		return upinIdx.Backend.ScanBatched(w.Client, provRanges[c].Lo, provRanges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.BatchCharges
			for _, e := range entries {
				rec, cls, err := f.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				nameV, err := object.DecodeAttr(cls, rec, ai.provName)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				ch.AttrGets++
				ch.HandleUnrefs++
				provParts[c] = append(provParts[c], provTuple{e.Rid, nameV.Str})
			}
			w.Meter.ChargeBatch(ch)
			return true, nil
		})
	})
	if err != nil {
		return nil, err
	}
	var provRun []provTuple
	for _, p := range provParts {
		provRun = append(provRun, p...)
	}

	patRanges := chunkScan(1, q.K1, 1)
	patParts := make([][]patTuple, len(patRanges))
	err = db.RunChunks(len(patRanges), func(w *engine.Session, c int) error {
		f := w.Handles.Fetcher()
		return mrnIdx.Backend.ScanBatched(w.Client, patRanges[c].Lo, patRanges[c].Hi, bsize, func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.BatchCharges
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
			w.Meter.ChargeBatch(ch)
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
