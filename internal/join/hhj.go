package join

import (
	"treebench/internal/index"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// runHHJ is the hybrid-hash variant of PHJ that the paper points at twice
// ("the second point indicates the need for hybrid hashing, which we did
// not test"; "We did not consider hybrid hashing [17] to optimize this").
//
// When the parent table would exceed the memory budget, both inputs are
// partitioned by a hash of the provider identifier. Partition 0 stays in
// memory (the hybrid part); the rest spill to temporary files with
// sequential I/O and are joined partition by partition. The win over PHJ is
// structural: the random swap faults PHJ suffers become sequential
// spill writes and reads.
func runHHJ(env *Env, q Query) (*Result, error) {
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
	meter := db.Meter
	k1, k2 := q.K1, q.K2
	res := &Result{}

	// Plan: how many partitions do we need so each parent sub-table fits
	// comfortably (80% of budget, leaving room for probe-side working
	// space)?
	selParents := q.K2 - 1
	if selParents > int64(env.NumParents) {
		selParents = int64(env.NumParents)
	}
	tableBytes := selParents * parentEntryBytes
	budget := db.Machine.HashBudget * 8 / 10
	if budget < 1 {
		budget = 1
	}
	parts := int((tableBytes + budget - 1) / budget)
	if parts < 1 {
		parts = 1
	}
	res.SpillPartitions = parts

	// The spill files hold SMJ's run tuples (provTupleBytes, patTupleBytes):
	// a provider tuple is accounted with the name nothing reads, and holds
	// the rid alone.
	partOf := func(r storage.Rid) int {
		if parts == 1 {
			return 0
		}
		h := uint64(r.Page)*0x9E3779B1 + uint64(r.Slot)*0x85EBCA77
		return int(h % uint64(parts))
	}

	// spill charges sequential temp-file I/O per page of tuples.
	spillWriter := func(tupleBytes int) func(n int) {
		var bytes int64
		return func(n int) {
			bytes += int64(n) * int64(tupleBytes)
			for bytes >= storage.PageSize {
				bytes -= storage.PageSize
				meter.DiskWrite()
			}
		}
	}
	spillReader := func(tupleBytes int, tuples int) {
		pages := (int64(tuples)*int64(tupleBytes) + storage.PageSize - 1) / storage.PageSize
		for i := int64(0); i < pages; i++ {
			meter.DiskRead()
		}
	}

	// Build phase: partition the selected providers. Partition 0 builds
	// its table in memory immediately.
	table0 := make(providerSet)
	region0 := sim.NewRegion(meter, db.Machine.HashBudget)
	provParts := make([][]storage.Rid, parts)
	provSpill := spillWriter(provTupleBytes)
	err = scanRows(db, upinIdx, 1, k2, func(e index.Entry) (bool, error) {
		ph, err := db.Handles.Get(e.Rid)
		if err != nil {
			return false, err
		}
		err = db.Handles.CheckAttr(ph, ai.provName)
		db.Handles.Unref(ph)
		if err != nil {
			return false, err
		}
		p := partOf(e.Rid)
		if p == 0 {
			meter.HashInsert()
			region0.Grow(parentEntryBytes)
			region0.RandomWrite()
			table0[e.Rid] = struct{}{}
		} else {
			provParts[p] = append(provParts[p], e.Rid)
			provSpill(1)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	res.HashTableBytes = region0.Size()
	res.Swapped = region0.Swapping()

	// Probe phase: scan selected patients; partition-0 patients probe
	// immediately, the rest spill.
	patParts := make([][]patTuple, parts)
	patSpill := spillWriter(patTupleBytes)
	err = scanRows(db, mrnIdx, 1, k1, func(e index.Entry) (bool, error) {
		pa, err := db.Handles.Get(e.Rid)
		if err != nil {
			return false, err
		}
		defer db.Handles.Unref(pa)
		pcpV, err := db.Handles.Attr(pa, ai.patPcp)
		if err != nil {
			return false, err
		}
		p := partOf(pcpV.Ref)
		if p == 0 {
			meter.HashProbe()
			region0.RandomRead()
			if _, ok := table0[pcpV.Ref]; ok {
				if _, err := db.Handles.Attr(pa, ai.patAge); err != nil {
					return false, err
				}
				emit(meter, res)
			}
			return true, nil
		}
		ageV, err := db.Handles.Attr(pa, ai.patAge)
		if err != nil {
			return false, err
		}
		patParts[p] = append(patParts[p], patTuple{pcpV.Ref, ageV.Int})
		patSpill(1)
		return true, nil
	})
	if err != nil {
		return nil, err
	}

	// Join the spilled partitions one by one; each sub-table fits.
	for p := 1; p < parts; p++ {
		spillReader(provTupleBytes, len(provParts[p]))
		table := make(providerSet, len(provParts[p]))
		for _, rid := range provParts[p] {
			meter.HashInsert()
			table[rid] = struct{}{}
		}
		if sz := int64(len(provParts[p])) * parentEntryBytes; sz > res.HashTableBytes {
			res.HashTableBytes = sz
		}
		spillReader(patTupleBytes, len(patParts[p]))
		for _, t := range patParts[p] {
			meter.HashProbe()
			if _, ok := table[t.pcp]; ok {
				emit(meter, res)
			}
		}
	}
	return res, nil
}
