package derby

import (
	"fmt"
	"time"

	"treebench/internal/collection"
	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Clustering selects one of the Figure 2 physical organizations.
type Clustering int

const (
	// ClassCluster stores all objects of one class together: a Providers
	// file, a Patients file, and (for 1:1000) a separate Clients file for
	// the over-a-page sets.
	ClassCluster Clustering = iota
	// RandomOrg stores every object in one file, the two classes randomly
	// interleaved — the price one pays after many size-changing updates
	// (§5.2). Each class's objects keep their creation (key) order within
	// the merge: Figure 15's measurements pin this down, since the paper's
	// random organization favours the same algorithms as class clustering
	// at 1.5–2× the cost, which a full permutation of the key order would
	// not (every index scan would degrade ~10×, as composition clustering
	// shows for simple selections).
	RandomOrg
	// CompositionCluster stores each provider followed by its patients
	// (the 1-n relationship order, Figure 2 right).
	CompositionCluster
)

// String names the clustering like the paper's figures do.
func (c Clustering) String() string {
	switch c {
	case ClassCluster:
		return "class"
	case RandomOrg:
		return "random"
	case CompositionCluster:
		return "composition"
	default:
		return fmt.Sprintf("clustering(%d)", int(c))
	}
}

// ParseClustering is String's inverse: the one place the -clustering flag
// values ("class", "random", "composition") are interpreted.
func ParseClustering(s string) (Clustering, error) {
	for c := ClassCluster; c <= CompositionCluster; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown clustering %q (want class, random or composition)", s)
}

// Config parameterizes a database build.
type Config struct {
	// Providers and AvgPatients set the scale: the paper's two databases
	// are {2000, 1000} and {1000000, 3}. The patient population is
	// Providers×AvgPatients; each patient draws its provider uniformly,
	// so per-provider counts vary around the average as in the paper.
	Providers   int
	AvgPatients int

	Clustering Clustering

	// Seed drives the lrand48 generator (association, num permutation,
	// random organization order).
	Seed int32

	Machine sim.Machine
	Model   sim.CostModel

	// TxnMode selects the loading discipline. NoTransaction is the tuned
	// §3.2 configuration; Standard reproduces the slow first attempt.
	TxnMode txn.Mode
	// CreateBudget caps objects per transaction in Standard mode
	// (default txn.DefaultCreateBudget).
	CreateBudget int

	// IndexBeforeLoad creates the indexes on the empty extents so objects
	// are born with header slots (the fast path). If false, indexes are
	// built after population — §3.2's relocation storm.
	IndexBeforeLoad bool

	// SkipNumIndex omits the unclustered index on Patient.num (only the
	// selection experiments need it, and at 1:3 scale it is never used).
	SkipNumIndex bool

	// IndexBackend selects the pluggable index structure every CreateIndex
	// uses ("btree" or "lsm"; empty means the B+-tree default). It changes
	// physical layout and cost accounting, never query results.
	IndexBackend string
}

// DefaultConfig returns the tuned loading configuration at the given scale.
func DefaultConfig(providers, avgPatients int, clustering Clustering) Config {
	return Config{
		Providers:       providers,
		AvgPatients:     avgPatients,
		Clustering:      clustering,
		Seed:            1997,
		Machine:         sim.DefaultMachine(),
		Model:           sim.DefaultCostModel(),
		TxnMode:         txn.NoTransaction,
		IndexBeforeLoad: true,
	}
}

// LoadReport summarizes a database build for the §3.2 loading experiments.
type LoadReport struct {
	Elapsed     time.Duration
	Commits     int
	Relocations int // objects moved by post-load index creation
	Counters    sim.Counters
}

// Dataset is a built database plus the handles the experiments need.
type Dataset struct {
	DB        *engine.Database
	Providers *engine.Extent
	Patients  *engine.Extent

	NumProviders int
	NumPatients  int
	Clustering   Clustering

	// ProviderRids and PatientRids map upin-1 / mrn-1 to physical ids
	// (generation bookkeeping; query algorithms never use them).
	ProviderRids []storage.Rid
	PatientRids  []storage.Rid

	Load LoadReport
}

// Relationship renders "1:3"-style labels.
func (d *Dataset) Relationship() string {
	return fmt.Sprintf("1:%d", d.NumPatients/max(d.NumProviders, 1))
}

// Generate builds a database per cfg. The build is deterministic in
// cfg.Seed.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Providers <= 0 || cfg.AvgPatients <= 0 {
		return nil, fmt.Errorf("derby: bad scale %d×%d", cfg.Providers, cfg.AvgPatients)
	}
	if cfg.CreateBudget == 0 {
		cfg.CreateBudget = txn.DefaultCreateBudget
	}
	db := engine.New(cfg.Machine, cfg.Model, cfg.TxnMode)
	db.Txns.SetCreateBudget(cfg.CreateBudget)
	if cfg.IndexBackend != "" {
		if err := db.SetIndexBackend(cfg.IndexBackend); err != nil {
			return nil, err
		}
	}

	nProv := cfg.Providers
	nPat := cfg.Providers * cfg.AvgPatients

	// File layout per clustering.
	var provFile, patFile string
	switch cfg.Clustering {
	case ClassCluster:
		provFile, patFile = "Providers", "Patients"
	case RandomOrg:
		provFile, patFile = "Objects", "Objects"
	case CompositionCluster:
		provFile, patFile = "Clustered", "Clustered"
	default:
		return nil, fmt.Errorf("derby: unknown clustering %v", cfg.Clustering)
	}
	providers, err := db.CreateExtent("Providers", ProviderClass(), provFile)
	if err != nil {
		return nil, err
	}
	patients, err := db.CreateExtent("Patients", PatientClass(), patFile)
	if err != nil {
		return nil, err
	}

	// Indexes first (fast path) or last (§3.2 storm), below.
	// upin and mrn scans return Rids in physical order under class
	// clustering AND the random interleave (each class keeps its creation
	// order; the random file merely dilutes it with the other class's
	// pages), so both count as clustered. Composition scatters mrn; num
	// is never clustered.
	clusteredKeys := cfg.Clustering != CompositionCluster
	if cfg.IndexBeforeLoad {
		if _, _, err := db.CreateIndex(providers, "upin", clusteredKeys); err != nil {
			return nil, err
		}
		if _, _, err := db.CreateIndex(patients, "mrn", clusteredKeys); err != nil {
			return nil, err
		}
		if !cfg.SkipNumIndex {
			if _, _, err := db.CreateIndex(patients, "num", false); err != nil {
				return nil, err
			}
		}
	}

	rng := NewLRand48(cfg.Seed)
	// Association: patient j belongs to provider assign[j] (the §3.2
	// random_integer). num is a random permutation of 1..nPat so numeric
	// predicates hit exact selectivities.
	assign := make([]int32, nPat)
	for j := range assign {
		assign[j] = int32(rng.Intn(nProv))
	}
	numPerm := rng.Perm(nPat)
	// Per-provider patient lists, each in a random internal order: a
	// provider's patients have unrelated mrns (under composition
	// clustering they were accumulated over time, not loaded in mrn
	// order), so an mrn index over the composed file is genuinely
	// unclustered.
	group := patientsByProvider(assign, nProv)
	for i := range group {
		g := group[i]
		for k := len(g) - 1; k > 0; k-- {
			l := rng.Intn(k + 1)
			g[k], g[l] = g[l], g[k]
		}
	}

	d := &Dataset{
		DB:           db,
		Providers:    providers,
		Patients:     patients,
		NumProviders: nProv,
		NumPatients:  nPat,
		Clustering:   cfg.Clustering,
		ProviderRids: make([]storage.Rid, nProv),
		PatientRids:  make([]storage.Rid, nPat),
	}

	// Creation order per clustering. Object identity (upin, mrn) is the
	// same in all three; only physical placement differs.
	loader := &loader{db: db, cfg: cfg}
	createProvider := func(i int) error {
		vals := []object.Value{
			object.StringValue(providerName(i)),
			object.IntValue(int64(i + 1)), // upin
			object.StringValue(fmt.Sprintf("addr-%07d", i)),
			object.StringValue(specialties[i%len(specialties)]),
			object.StringValue(fmt.Sprintf("office-%05d", i%1000)),
			object.SetValue(storage.NilRid),
		}
		rid, err := loader.insert(providers, vals)
		if err != nil {
			return err
		}
		d.ProviderRids[i] = rid
		return nil
	}
	createPatient := func(j int, pcp storage.Rid) error {
		vals := []object.Value{
			object.StringValue(patientName(j)),
			object.IntValue(int64(j + 1)), // mrn
			object.IntValue(int64(j % 100)),
			object.CharValue("MF"[j%2]),
			object.IntValue(int64(assign[j]) + 1),
			object.IntValue(int64(numPerm[j]) + 1),
			object.RefValue(pcp),
		}
		rid, err := loader.insert(patients, vals)
		if err != nil {
			return err
		}
		d.PatientRids[j] = rid
		return nil
	}

	switch cfg.Clustering {
	case ClassCluster:
		// All providers, then all patients in mrn order; the association
		// is randomized because assign is.
		for i := 0; i < nProv; i++ {
			if err := createProvider(i); err != nil {
				return nil, err
			}
		}
		for j := 0; j < nPat; j++ {
			if err := createPatient(j, storage.NilRid); err != nil {
				return nil, err
			}
		}
	case RandomOrg:
		// A random interleave of the two creation streams: class tags are
		// shuffled, then each class is created in its own order.
		tags := make([]byte, nProv+nPat)
		for k := nProv; k < len(tags); k++ {
			tags[k] = 1
		}
		for k := len(tags) - 1; k > 0; k-- {
			l := rng.Intn(k + 1)
			tags[k], tags[l] = tags[l], tags[k]
		}
		pi, pj := 0, 0
		for _, tag := range tags {
			if tag == 0 {
				if err := createProvider(pi); err != nil {
					return nil, err
				}
				pi++
			} else {
				if err := createPatient(pj, storage.NilRid); err != nil {
					return nil, err
				}
				pj++
			}
		}
	case CompositionCluster:
		// Providers in upin order, each followed by its patients (in the
		// group's shuffled internal order).
		for i := 0; i < nProv; i++ {
			if err := createProvider(i); err != nil {
				return nil, err
			}
			for _, j := range group[i] {
				if err := createPatient(int(j), d.ProviderRids[i]); err != nil {
					return nil, err
				}
			}
		}
	}

	// Association phase (§3.2: "we need to create all doctors and all
	// patients before we can update the doctor-patients relationship").
	// The paper evaluated a join for this; we use the recorded rids
	// directly — the resulting physical state is identical and the join
	// algorithms are measured in their own experiments.
	pcpIdx := patients.Class.AttrIndex("primary_care_provider")
	clientsIdx := providers.Class.AttrIndex("clients")
	if cfg.Clustering != CompositionCluster {
		for j := 0; j < nPat; j++ {
			rec, err := storage.Get(db.Client, d.PatientRids[j])
			if err != nil {
				return nil, err
			}
			if err := object.EncodeAttrInPlace(patients.Class, rec, pcpIdx, object.RefValue(d.ProviderRids[assign[j]])); err != nil {
				return nil, err
			}
			if err := db.Client.Write(d.PatientRids[j].Page); err != nil {
				return nil, err
			}
			if err := loader.noteUpdate(len(rec)); err != nil {
				return nil, err
			}
		}
	}
	// Clients sets: in the owner's file when small, in a separate file
	// when the encoding exceeds a page (§2). Under composition clustering
	// the sets stay in the single clustered file regardless, right after
	// the population.
	setFile := providers.File
	if cfg.Clustering == ClassCluster && collection.EncodedSize(cfg.AvgPatients) > storage.PageSize {
		setFile, err = db.Store.CreateFile("Clients")
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < nProv; i++ {
		members := make([]storage.Rid, len(group[i]))
		for k, j := range group[i] {
			members[k] = d.PatientRids[j]
		}
		head, err := collection.Create(db.Client, setFile, members)
		if err != nil {
			return nil, err
		}
		rec, err := storage.Get(db.Client, d.ProviderRids[i])
		if err != nil {
			return nil, err
		}
		if err := object.EncodeAttrInPlace(providers.Class, rec, clientsIdx, object.SetValue(head)); err != nil {
			return nil, err
		}
		if err := db.Client.Write(d.ProviderRids[i].Page); err != nil {
			return nil, err
		}
		if err := loader.noteUpdate(len(rec)); err != nil {
			return nil, err
		}
	}

	// Post-load index creation (§3.2's blunder) if requested.
	if !cfg.IndexBeforeLoad {
		var reloc int
		if _, n, err := db.CreateIndex(providers, "upin", clusteredKeys); err != nil {
			return nil, err
		} else {
			reloc += n
		}
		if _, n, err := db.CreateIndex(patients, "mrn", clusteredKeys); err != nil {
			return nil, err
		} else {
			reloc += n
		}
		if !cfg.SkipNumIndex {
			if _, n, err := db.CreateIndex(patients, "num", false); err != nil {
				return nil, err
			} else {
				reloc += n
			}
		}
		d.Load.Relocations = reloc
	}

	if err := loader.finish(); err != nil {
		return nil, err
	}
	d.Load.Elapsed = db.Meter.Elapsed()
	d.Load.Commits = loader.commits
	d.Load.Counters = db.Meter.Snapshot()
	return d, nil
}

// patientsByProvider inverts the assignment into per-provider patient lists
// (patient indexes in mrn order).
func patientsByProvider(assign []int32, nProv int) [][]int32 {
	group := make([][]int32, nProv)
	counts := make([]int32, nProv)
	for _, p := range assign {
		counts[p]++
	}
	for i := range group {
		group[i] = make([]int32, 0, counts[i])
	}
	for j, p := range assign {
		group[p] = append(group[p], int32(j))
	}
	return group
}

// loader batches creations into transactions of the configured budget.
type loader struct {
	db      *engine.Database
	cfg     Config
	tx      *txn.Txn
	inTx    int
	commits int
}

func (l *loader) ensureTx() *txn.Txn {
	if l.tx == nil {
		l.tx = l.db.Txns.Begin()
		l.inTx = 0
	}
	return l.tx
}

func (l *loader) maybeCommit() error {
	// Commit just under the budget: exceeding it is the "out of memory"
	// failure.
	if l.cfg.TxnMode == txn.Standard && l.inTx >= l.cfg.CreateBudget {
		return l.commit()
	}
	return nil
}

func (l *loader) commit() error {
	if l.tx == nil {
		return nil
	}
	err := l.tx.Commit()
	l.tx = nil
	l.commits++
	return err
}

func (l *loader) insert(e *engine.Extent, vals []object.Value) (storage.Rid, error) {
	tx := l.ensureTx()
	rid, err := l.db.Insert(tx, e, vals)
	if err != nil {
		return storage.Rid{}, err
	}
	l.inTx++
	return rid, l.maybeCommit()
}

func (l *loader) noteUpdate(recBytes int) error {
	tx := l.ensureTx()
	if err := tx.NoteUpdate(recBytes); err != nil {
		return err
	}
	l.inTx++
	return l.maybeCommit()
}

func (l *loader) finish() error {
	if err := l.commit(); err != nil {
		return err
	}
	l.db.Client.Flush()
	return nil
}
