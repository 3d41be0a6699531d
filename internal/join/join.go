// Package join implements the four evaluation strategies of §5.1 for the
// paper's tree query
//
//	select f(p,pa)
//	from p in Providers, pa in p.clients
//	where pa.mrn < k1 and p.upin < k2
//
// with f(p,pa) = [p.name, pa.age]: NL (parent-to-child navigation), NOJOIN
// (child-to-parent navigation), PHJ (hash the parents), CHJ (hash the
// children — the pointer-based join of Shekita & Carey, modified to scan
// the outer sequentially), plus HHJ, the hybrid-hash variant the paper
// calls for but did not test.
//
// All I/O and CPU costs emerge from the layers below: index scans page in
// index leaves, navigation faults on the cache according to the physical
// clustering, handles charge their §4 management cost, and hash tables
// larger than the machine's memory budget swap via sim.Region.
//
// The chunked strategies (NL, PHJ, CHJ, SMJ) run over batches of
// db.Batch() records: index scans deliver leaf-bounded entry batches
// through the buffers the chunk's session lends (engine.Session.Borrow),
// record fetches go through run-reusing object.Fetchers instead of
// materializing a handle per object, and the per-object CPU charges
// accumulate into one sim.Counters delta added per batch. The
// hash-region traffic (Grow/RandomWrite/RandomRead) stays per entry, in
// entry order, inside the batch loops — a region's swap arithmetic depends
// on its size at each call, so batching may not reorder it — which keeps
// every simulated number byte-identical at any batch size, 1 included, and
// to the handle-at-a-time loops kept as the reference in scalar_test.go.
//
// NOJOIN, VNOJOIN and HHJ navigate record-at-a-time through the shared
// handle table on purpose: its cache-hit profile is their experiment.
package join

import (
	"fmt"
	"time"

	"treebench/internal/collection"
	"treebench/internal/engine"
	"treebench/internal/index"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Algorithm names one evaluation strategy.
type Algorithm string

// The §5.1 algorithms, plus the hybrid-hash extension.
const (
	NL     Algorithm = "NL"
	NOJOIN Algorithm = "NOJOIN"
	PHJ    Algorithm = "PHJ"
	CHJ    Algorithm = "CHJ"
	HHJ    Algorithm = "HHJ"
	// SMJ is the sort-merge pointer join the paper tried and dropped
	// (§5.1); kept so that decision is reproducible.
	SMJ Algorithm = "SMJ"
	// VNOJOIN is the value-based counterpart of NOJOIN: children resolve
	// their parents through the parent key index instead of a physical
	// pointer — the alternative [14] measured pointer joins against.
	VNOJOIN Algorithm = "VNOJOIN"
)

// Algorithms lists the paper's four strategies in its reporting order.
func Algorithms() []Algorithm { return []Algorithm{PHJ, CHJ, NOJOIN, NL} }

// Hash-table memory accounting, matching the paper's Figure 10 arithmetic:
// 64 bytes per parent entry (rid, provider information, bucket overhead)
// and, for the children table, 64 bytes per group plus 8 bytes per child
// payload (its age and list linkage).
const (
	parentEntryBytes = 64
	groupEntryBytes  = 64
	childEntryBytes  = 8
)

// Env describes the 1-n hierarchy a tree query runs over. The attribute
// names parameterize the algorithms so any parent/child schema works; the
// Derby defaults are the paper's providers and patients.
type Env struct {
	DB     *engine.Database
	Parent *engine.Extent // the 1 side (providers)
	Child  *engine.Extent // the n side (patients)

	// SetAttr is the parent's collection of children ("clients");
	// ParentRefAttr is the child's back reference ("primary_care_provider").
	SetAttr       string
	ParentRefAttr string
	// ParentKeyAttr and ChildKeyAttr carry the selection predicates and
	// must be indexed ("upin", "mrn").
	ParentKeyAttr string
	ChildKeyAttr  string
	// ParentProj and ChildProj are the f(p,pa) components ("name", "age").
	ParentProj string
	ChildProj  string
	// ChildFKAttr is the child's value-based foreign key — an attribute
	// equal to the parent's key ("random_integer" = provider's upin).
	// Only the value-based VNOJOIN uses it.
	ChildFKAttr string

	NumParents  int
	NumChildren int

	// Composition hints that children are physically clustered with
	// their parents (Figure 2's right organization). The executor never
	// reads it — access patterns emerge from the data — but the
	// cost-based planner uses it to predict navigation cost.
	Composition bool
}

// Query bounds the two selections: child.key < K1 and parent.key < K2.
// SelChildren/SelParents carry the selectivity labels (percent) when the
// query was built from selectivities; they are reporting metadata only.
type Query struct {
	K1, K2                  int64
	SelChildren, SelParents int
}

// BySelectivity builds the §5 query keeping selChildren% of children and
// selParents% of parents — exact, because the Derby keys are dense 1..N.
func (env *Env) BySelectivity(selChildren, selParents int) Query {
	return Query{
		K1:          int64(env.NumChildren*selChildren/100) + 1,
		K2:          int64(env.NumParents*selParents/100) + 1,
		SelChildren: selChildren,
		SelParents:  selParents,
	}
}

// Result reports one algorithm run.
type Result struct {
	Algorithm Algorithm
	Query     Query
	Tuples    int
	Elapsed   time.Duration
	Counters  sim.Counters

	// HashTableBytes is the peak hash-table size (0 for navigation).
	HashTableBytes int64
	// Swapped reports whether the table exceeded the memory budget.
	Swapped bool
	// SpillPartitions is HHJ's partition count (1 = in-memory).
	SpillPartitions int
}

// Run evaluates the tree query with the given algorithm on a cold system
// (the caller is responsible for ColdRestart; Run asserts the meter starts
// at zero to keep measurements honest).
func Run(env *Env, algo Algorithm, q Query) (*Result, error) {
	if env.DB.Meter.Elapsed() != 0 {
		return nil, fmt.Errorf("join: meter not reset; call ColdRestart before Run")
	}
	if q.K1 < 0 || q.K2 < 0 {
		return nil, fmt.Errorf("join: bad key bounds %+v", q)
	}
	var (
		res *Result
		err error
	)
	switch algo {
	case NL:
		res, err = runNL(env, q)
	case NOJOIN:
		res, err = runNOJOIN(env, q)
	case PHJ:
		res, err = runPHJ(env, q)
	case CHJ:
		res, err = runCHJ(env, q)
	case HHJ:
		res, err = runHHJ(env, q)
	case SMJ:
		res, err = runSMJ(env, q)
	case VNOJOIN:
		res, err = runVNOJOIN(env, q)
	default:
		return nil, fmt.Errorf("join: unknown algorithm %q", algo)
	}
	if err != nil {
		return nil, err
	}
	res.Algorithm = algo
	res.Query = q
	res.Elapsed = env.DB.Meter.Elapsed()
	res.Counters = env.DB.Meter.Snapshot()
	return res, nil
}

// attrIndexes caches the attribute positions the query touches.
type attrIndexes struct {
	provName, provUpin, provClients int
	patMrn, patAge, patPcp          int
}

func attrs(env *Env) (attrIndexes, error) {
	pc, tc := env.Parent.Class, env.Child.Class
	ai := attrIndexes{
		provName:    pc.AttrIndex(env.ParentProj),
		provUpin:    pc.AttrIndex(env.ParentKeyAttr),
		provClients: pc.AttrIndex(env.SetAttr),
		patMrn:      tc.AttrIndex(env.ChildKeyAttr),
		patAge:      tc.AttrIndex(env.ChildProj),
		patPcp:      tc.AttrIndex(env.ParentRefAttr),
	}
	for _, spec := range []struct {
		idx  int
		name string
	}{
		{ai.provName, env.ParentProj}, {ai.provUpin, env.ParentKeyAttr},
		{ai.provClients, env.SetAttr}, {ai.patMrn, env.ChildKeyAttr},
		{ai.patAge, env.ChildProj}, {ai.patPcp, env.ParentRefAttr},
	} {
		if spec.idx < 0 {
			return ai, fmt.Errorf("join: env names unknown attribute %q", spec.name)
		}
	}
	return ai, nil
}

func indexOrErr(env *Env, extent, attr string) (*engine.Index, error) {
	ix := env.DB.IndexOn(extent, attr)
	if ix == nil {
		return nil, fmt.Errorf("join: no index on %s.%s", extent, attr)
	}
	return ix, nil
}

// runNL is parent-to-child navigation:
//
//	For all providers p whose upin < k2        /* index scan */
//	  For all clients pa of p                  /* navigation */
//	    if pa.mrn < k1 add f(p,pa) to the result
//
// Only the provider index is usable; patients are reached through the
// clients sets, randomly under class/random clustering and sequentially
// under composition clustering.
//
// Parallelism: the provider key range is chunked; each chunk navigates its
// providers' whole client sets, so every (p, pa) pair belongs to exactly one
// chunk.
//
// Provider fetches always re-read (collection chunks and patient pages
// intervene between providers); patient fetches reuse page runs within one
// collection chunk's delivery — under composition clustering that is where
// almost all of NL's per-object pager work collapses.
//
// A chunk of NL reads far more pages than a small buffer pool holds, so it
// quiesces per provider: the frames one provider's navigation evicts
// serve the next providers' misses.
func runNL(env *Env, q Query) (*Result, error) {
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
		sc := w.Borrow()
		defer w.Return(sc)
		part := &Result{}
		parts[c] = part
		pf := w.Handles.Fetcher() // providers
		cf := w.Handles.Fetcher() // patients
		prids := sc.RidBuf(w.Batch())
		return scanBatches(w, sc, upinIdx, ranges[c], func(entries []index.Entry) (bool, error) {
			var ch sim.Counters
			for _, e := range entries {
				// Quiescent point, once per provider: the index scan reads
				// a copy of its leaf, entries and prids hold rids, the last
				// provider's record and clients are dead, and both page
				// memos are dropped here — cf's would be at its next
				// delivery anyway, so the drop changes no counter.
				pf.Invalidate() // chunk/patient reads intervened
				cf.Invalidate()
				w.Quiesce()
				prec, pcls, err := pf.Fetch(e.Rid)
				if err != nil {
					return false, err
				}
				ch.HandleGets++
				if err := object.CheckAttr(pcls, prec, ai.provName); err != nil {
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
			w.Meter.N.Add(ch)
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

// runNOJOIN is child-to-parent navigation:
//
//	For all patients whose mrn < k1            /* index scan */
//	  get the patient primary care provider p  /* navigation */
//	  if p.upin < k2 add f(p,pa) to the result
//
// The index rides on the large collection, but the upin condition may be
// tested up to 3 (resp. 1000) times per provider.
//
// NOJOIN stays sequential deliberately. Its cost profile is dominated by
// re-referencing the small provider set from every child — the client cache
// turns all but the first deref of each provider page into hits. Chunking
// would give each chunk a private cold cache and re-fault that working set
// once per chunk, inflating the simulated cost several-fold and distorting
// the paper's NOJOIN-vs-alternatives comparisons. The chunked operators
// (NL, PHJ, CHJ, SMJ) partition work whose pages each chunk touches mostly
// disjointly, where the duplication is a few boundary pages and B-tree
// descents.
func runNOJOIN(env *Env, q Query) (*Result, error) {
	db := env.DB
	ai, err := attrs(env)
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
		ph, err := db.Handles.Get(pcpV.Ref)
		if err != nil {
			return false, err
		}
		defer db.Handles.Unref(ph)
		upinV, err := db.Handles.Attr(ph, ai.provUpin)
		if err != nil {
			return false, err
		}
		meter.Compare()
		if upinV.Int < k2 {
			if err := db.Handles.CheckAttr(ph, ai.provName); err != nil {
				return false, err
			}
			if _, err := db.Handles.Attr(pa, ai.patAge); err != nil {
				return false, err
			}
			emit(meter, res)
		}
		return true, nil
	})
	return res, err
}

func emit(meter *sim.Meter, res *Result) {
	meter.ResultAppend()
	res.Tuples++
}

// providerSet is the parent table: the selected providers' identifiers.
// Each entry is accounted as holding "the elements needed to construct
// f(p,pa)" (§5), the provider's name (parentEntryBytes, provTupleBytes);
// nothing reads the name, so the builds check it and charge its AttrGet
// without decoding it.
type providerSet = map[storage.Rid]struct{}

// runPHJ hashes the parents and joins:
//
//	hash all providers whose upin < k2 by their identifiers  /* index scan */
//	For all patients whose mrn < k1                          /* index scan */
//	  get the provider information by probing the hash table
//	  add f(p,pa) to the result
//
// Parallelism: the build partitions the provider key range, each chunk
// hashing its subrange into a private table charged against its share of the
// memory budget (keys are uniform, so a chunk outgrows its share exactly
// when the whole table outgrows the budget). The partitions then merge into
// one read-only table and the probe fans out over patient key chunks with no
// merge step — each probe chunk's region is preset to the full table size so
// its resident fraction matches the sequential probe.
//
// Build and probe each fetch records through a fetcher, invalidated at every
// delivery (a leaf read may have intervened), and merge one charge delta per
// batch; the region traffic stays per entry.
func runPHJ(env *Env, q Query) (*Result, error) {
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
		sc := w.Borrow()
		defer w.Return(sc)
		region := sim.NewRegion(w.Meter, buildBudget)
		table := make(providerSet)
		tables[c] = table
		f := w.Handles.Fetcher()
		err := scanBatches(w, sc, upinIdx, buildRanges[c], func(entries []index.Entry) (bool, error) {
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
				ch.HashInserts++
				region.Grow(parentEntryBytes)
				region.RandomWrite()
				table[e.Rid] = struct{}{}
			}
			w.Meter.N.Add(ch)
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
		for rid := range t {
			table[rid] = struct{}{}
		}
	}

	// Probe: sequential scan of selected patients, random probes. The merged
	// table is read-only from here; chunks share it freely.
	probeRanges := chunkScan(1, q.K1, 1)
	parts := make([]*Result, len(probeRanges))
	err = db.RunChunks(len(probeRanges), func(w *engine.Session, c int) error {
		sc := w.Borrow()
		defer w.Return(sc)
		part := &Result{}
		parts[c] = part
		region := sim.NewRegion(w.Meter, db.Machine.HashBudget)
		region.Grow(totalSize)
		f := w.Handles.Fetcher()
		return scanBatches(w, sc, mrnIdx, probeRanges[c], func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.Counters
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
			w.Meter.N.Add(ch)
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}

// runCHJ hashes the children and joins — the §5.1 variation of the
// pointer-based join that scans the provider collection sequentially
// instead of in hash order:
//
//	hash all patients whose mrn < k1 by their primary care provider
//	For all providers whose upin < k2                        /* index scan */
//	  get the corresponding patient information in the hash table
//	  add f(p,pa) to the result
//
// Parallelism mirrors runPHJ with the roles reversed: the build partitions
// the patient key range into private group tables (each charged against its
// share of the memory budget; a provider whose patients span chunks costs
// one group entry per chunk it appears in), the partitions merge by
// concatenating each provider's ages in chunk order — which is mrn order,
// exactly what the sequential build produces — and the probe fans out over
// provider key chunks against the merged read-only table. An empty group
// skips the provider fetch entirely.
func runCHJ(env *Env, q Query) (*Result, error) {
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
		sc := w.Borrow()
		defer w.Return(sc)
		region := sim.NewRegion(w.Meter, buildBudget)
		table := make(map[storage.Rid][]int64) // provider rid → patient ages
		tables[c] = table
		f := w.Handles.Fetcher()
		return scanBatches(w, sc, mrnIdx, buildRanges[c], func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.Counters
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
			w.Meter.N.Add(ch)
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
		sc := w.Borrow()
		defer w.Return(sc)
		part := &Result{}
		parts[c] = part
		region := sim.NewRegion(w.Meter, db.Machine.HashBudget)
		region.Grow(totalSize)
		f := w.Handles.Fetcher()
		return scanBatches(w, sc, upinIdx, probeRanges[c], func(entries []index.Entry) (bool, error) {
			f.Invalidate()
			var ch sim.Counters
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
				if err := object.CheckAttr(cls, rec, ai.provName); err != nil {
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
			w.Meter.N.Add(ch)
			return true, nil
		})
	})
	sumTuples(res, parts)
	return res, err
}
