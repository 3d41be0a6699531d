package join

import (
	"testing"

	"treebench/internal/derby"
	"treebench/internal/object"
	"treebench/internal/storage"
)

// envFor builds a small Derby database and wraps it as a join Env.
func envFor(t *testing.T, providers, avgPatients int, cl derby.Clustering) (*Env, *derby.Dataset) {
	t.Helper()
	d, err := derby.Generate(derby.DefaultConfig(providers, avgPatients, cl))
	if err != nil {
		t.Fatal(err)
	}
	return EnvForDerby(d), d
}

// expectedTuples brute-forces the query result size from the raw records.
func expectedTuples(t *testing.T, d *derby.Dataset, q Query, env *Env) int {
	t.Helper()
	k1, k2 := q.K1, q.K2
	pcls, tcls := d.Providers.Class, d.Patients.Class
	upinIdx := pcls.AttrIndex("upin")
	mrnIdx := tcls.AttrIndex("mrn")
	pcpIdx := tcls.AttrIndex("primary_care_provider")
	count := 0
	for _, prid := range d.PatientRids {
		rec, err := storage.Get(d.DB.Client, prid)
		if err != nil {
			t.Fatal(err)
		}
		mrn, _ := object.DecodeAttr(tcls, rec, mrnIdx)
		if mrn.Int >= k1 {
			continue
		}
		pcp, _ := object.DecodeAttr(tcls, rec, pcpIdx)
		provRec, err := storage.Get(d.DB.Client, pcp.Ref)
		if err != nil {
			t.Fatal(err)
		}
		upin, _ := object.DecodeAttr(pcls, provRec, upinIdx)
		if upin.Int < k2 {
			count++
		}
	}
	return count
}

func TestAllAlgorithmsAgree(t *testing.T) {
	for _, cl := range []derby.Clustering{derby.ClassCluster, derby.RandomOrg, derby.CompositionCluster} {
		env, d := envFor(t, 40, 5, cl)
		for _, sel := range [][2]int{{10, 10}, {10, 90}, {90, 10}, {90, 90}, {50, 50}} {
			q := env.BySelectivity(sel[0], sel[1])
			env.DB.ColdRestart()
			want := expectedTuples(t, d, q, env)
			for _, algo := range append(Algorithms(), HHJ) {
				env.DB.ColdRestart()
				res, err := Run(env, algo, q)
				if err != nil {
					t.Fatalf("%v %s %+v: %v", cl, algo, q, err)
				}
				if res.Tuples != want {
					t.Fatalf("%v %s %+v: %d tuples, want %d", cl, algo, q, res.Tuples, want)
				}
				if res.Elapsed <= 0 {
					t.Fatalf("%v %s: no elapsed time", cl, algo)
				}
			}
		}
	}
}

func TestRunRequiresColdMeter(t *testing.T) {
	env, _ := envFor(t, 10, 3, derby.ClassCluster)
	env.DB.ColdRestart()
	if _, err := Run(env, PHJ, env.BySelectivity(10, 10)); err != nil {
		t.Fatal(err)
	}
	// Meter now non-zero: a second Run without restart must refuse.
	if _, err := Run(env, PHJ, env.BySelectivity(10, 10)); err == nil {
		t.Fatal("Run accepted a warm meter")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	env, _ := envFor(t, 10, 3, derby.ClassCluster)
	env.DB.ColdRestart()
	if _, err := Run(env, Algorithm("ZIGZAG"), env.BySelectivity(10, 10)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(env, PHJ, Query{K1: -1, K2: 10}); err == nil {
		t.Fatal("negative key bound accepted")
	}
}

func TestHashTableSizesMatchFigure10Formulas(t *testing.T) {
	env, _ := envFor(t, 100, 10, derby.ClassCluster) // 100 providers, 1000 patients
	q := env.BySelectivity(90, 90)
	env.DB.ColdRestart()
	phj, err := Run(env, PHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	// PHJ: 64 bytes × selected providers.
	selProv := int64(env.NumParents * q.SelParents / 100)
	if want := selProv * parentEntryBytes; phj.HashTableBytes != want {
		t.Fatalf("PHJ table = %d bytes, want %d", phj.HashTableBytes, want)
	}
	env.DB.ColdRestart()
	chj, err := Run(env, CHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	// CHJ: 64 bytes per provider group present + 8 per selected patient.
	selPat := int64(env.NumChildren * q.SelChildren / 100)
	min := selPat * childEntryBytes
	max := min + int64(env.NumParents)*groupEntryBytes
	if chj.HashTableBytes < min+groupEntryBytes || chj.HashTableBytes > max {
		t.Fatalf("CHJ table = %d bytes, want in (%d, %d]", chj.HashTableBytes, min, max)
	}
	if chj.HashTableBytes <= phj.HashTableBytes {
		t.Fatal("CHJ table not larger than PHJ's despite 10× more entries")
	}
}

func TestNavigationUsesNoHashTable(t *testing.T) {
	env, _ := envFor(t, 20, 5, derby.ClassCluster)
	for _, algo := range []Algorithm{NL, NOJOIN} {
		env.DB.ColdRestart()
		res, err := Run(env, algo, env.BySelectivity(50, 50))
		if err != nil {
			t.Fatal(err)
		}
		if res.HashTableBytes != 0 || res.Swapped {
			t.Fatalf("%s reported a hash table", algo)
		}
		if res.Counters.HashInserts != 0 || res.Counters.HashProbes != 0 {
			t.Fatalf("%s charged hash operations", algo)
		}
	}
}

func TestSwapChargedWhenTableExceedsBudget(t *testing.T) {
	env, _ := envFor(t, 200, 20, derby.ClassCluster) // 4000 patients
	// Shrink the budget so CHJ's table (≈200×64 + 3600×8 ≈ 41.6 KB at 90%)
	// swaps.
	env.DB.Machine.HashBudget = 16 << 10
	q := env.BySelectivity(90, 90)
	env.DB.ColdRestart()
	res, err := Run(env, CHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Fatalf("table of %d bytes did not swap against %d budget", res.HashTableBytes, env.DB.Machine.HashBudget)
	}
	if res.Counters.SwapReads == 0 && res.Counters.SwapWrites == 0 {
		t.Fatal("swapping charged no swap I/O")
	}
	// Same query with a big budget is faster.
	env.DB.Machine.HashBudget = 20 << 20
	env.DB.ColdRestart()
	fast, err := Run(env, CHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Elapsed >= res.Elapsed {
		t.Fatalf("in-memory CHJ (%v) not faster than swapped (%v)", fast.Elapsed, res.Elapsed)
	}
}

func TestHHJBeatsPHJWhenSwapping(t *testing.T) {
	env, _ := envFor(t, 2000, 2, derby.ClassCluster)
	env.DB.Machine.HashBudget = 32 << 10 // PHJ table at 90% = 1800×64 = 115 KB ⇒ swaps
	q := env.BySelectivity(90, 90)
	env.DB.ColdRestart()
	phj, err := Run(env, PHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if !phj.Swapped {
		t.Skip("PHJ did not swap at this scale; shrink budget")
	}
	env.DB.ColdRestart()
	hhj, err := Run(env, HHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if hhj.SpillPartitions < 2 {
		t.Fatalf("HHJ did not partition (parts=%d)", hhj.SpillPartitions)
	}
	if hhj.Tuples != phj.Tuples {
		t.Fatalf("HHJ %d tuples vs PHJ %d", hhj.Tuples, phj.Tuples)
	}
	if hhj.Elapsed >= phj.Elapsed {
		t.Fatalf("HHJ (%v) not faster than swapped PHJ (%v)", hhj.Elapsed, phj.Elapsed)
	}
}

func TestHHJDegeneratesToPHJInMemory(t *testing.T) {
	env, _ := envFor(t, 50, 4, derby.ClassCluster)
	q := env.BySelectivity(50, 50)
	env.DB.ColdRestart()
	hhj, err := Run(env, HHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if hhj.SpillPartitions != 1 {
		t.Fatalf("in-memory HHJ used %d partitions", hhj.SpillPartitions)
	}
	if hhj.Counters.DiskWrites != 0 {
		t.Fatal("in-memory HHJ spilled")
	}
}

// TestCompositionFavorsNavigation reproduces the §5.3 headline in
// miniature: under composition clustering NL wins; under class clustering
// with a large patient selectivity it does not.
func TestCompositionFavorsNavigation(t *testing.T) {
	comp, _ := envFor(t, 100, 50, derby.CompositionCluster)
	q := comp.BySelectivity(10, 10)
	times := map[Algorithm]float64{}
	for _, algo := range Algorithms() {
		comp.DB.ColdRestart()
		res, err := Run(comp, algo, q)
		if err != nil {
			t.Fatal(err)
		}
		times[algo] = res.Elapsed.Seconds()
	}
	if times[NL] >= times[PHJ] || times[NL] >= times[CHJ] {
		t.Fatalf("composition clustering: NL=%.2f not fastest (PHJ=%.2f CHJ=%.2f NOJOIN=%.2f)",
			times[NL], times[PHJ], times[CHJ], times[NOJOIN])
	}

	class, _ := envFor(t, 100, 50, derby.ClassCluster)
	ctimes := map[Algorithm]float64{}
	for _, algo := range Algorithms() {
		class.DB.ColdRestart()
		res, err := Run(class, algo, q)
		if err != nil {
			t.Fatal(err)
		}
		ctimes[algo] = res.Elapsed.Seconds()
	}
	if ctimes[NL] <= ctimes[PHJ] {
		t.Fatalf("class clustering: NL=%.2f beat PHJ=%.2f (random navigation should lose)",
			ctimes[NL], ctimes[PHJ])
	}
}

func TestSMJAgreesWithHashJoins(t *testing.T) {
	for _, cl := range []derby.Clustering{derby.ClassCluster, derby.CompositionCluster} {
		env, d := envFor(t, 40, 5, cl)
		for _, sel := range [][2]int{{10, 10}, {90, 90}, {50, 50}} {
			q := env.BySelectivity(sel[0], sel[1])
			env.DB.ColdRestart()
			want := expectedTuples(t, d, q, env)
			env.DB.ColdRestart()
			res, err := Run(env, SMJ, q)
			if err != nil {
				t.Fatalf("%v SMJ %+v: %v", cl, sel, err)
			}
			if res.Tuples != want {
				t.Fatalf("%v SMJ %+v: %d tuples, want %d", cl, sel, res.Tuples, want)
			}
		}
	}
}

// TestSMJLosesToHashInMemory reproduces the reason the paper dropped
// sort-based algorithms: with both runs in memory, the sort work makes SMJ
// strictly slower than the best hash join.
func TestSMJLosesToHashInMemory(t *testing.T) {
	env, _ := envFor(t, 100, 20, derby.ClassCluster)
	q := env.BySelectivity(90, 90)
	env.DB.ColdRestart()
	phj, err := Run(env, PHJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if phj.Swapped {
		t.Skip("unexpected swap at this scale")
	}
	env.DB.ColdRestart()
	smj, err := Run(env, SMJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if smj.Elapsed <= phj.Elapsed {
		t.Fatalf("in-memory SMJ (%v) not slower than PHJ (%v)", smj.Elapsed, phj.Elapsed)
	}
}

func TestSMJExternalSortCharged(t *testing.T) {
	env, _ := envFor(t, 100, 20, derby.ClassCluster)
	env.DB.Machine.HashBudget = 4 << 10 // 4KB: both runs spill
	q := env.BySelectivity(90, 90)
	env.DB.ColdRestart()
	res, err := Run(env, SMJ, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Fatal("external sort not flagged")
	}
	if res.Counters.DiskWrites == 0 {
		t.Fatal("external sort charged no spill I/O")
	}
	if want := int64(env.NumParents)*90/100*provTupleBytes + int64(env.NumChildren)*90/100*patTupleBytes; res.HashTableBytes != want {
		t.Fatalf("run bytes = %d, want %d", res.HashTableBytes, want)
	}
}

func TestVNOJOINAgreesWithPointerJoin(t *testing.T) {
	env, d := envFor(t, 100, 20, derby.ClassCluster)
	for _, sel := range [][2]int{{10, 10}, {90, 90}, {50, 50}} {
		q := env.BySelectivity(sel[0], sel[1])
		env.DB.ColdRestart()
		want := expectedTuples(t, d, q, env)
		env.DB.ColdRestart()
		vres, err := Run(env, VNOJOIN, q)
		if err != nil {
			t.Fatal(err)
		}
		if vres.Tuples != want {
			t.Fatalf("VNOJOIN %v tuples %d, want %d", sel, vres.Tuples, want)
		}
	}
}

func TestVNOJOINCrossover(t *testing.T) {
	// The pointer-vs-value trade (the [14] comparison the paper builds
	// on): when every parent must be resolved anyway (sel prov 90%), the
	// value join's per-child index descents are pure overhead and the
	// pointer join wins; when the key-value predicate is selective, the
	// value join filters before resolving and skips parent fetches.
	env, _ := envFor(t, 2000, 3, derby.ClassCluster)
	q := env.BySelectivity(90, 90)
	env.DB.ColdRestart()
	p90, err := Run(env, NOJOIN, q)
	if err != nil {
		t.Fatal(err)
	}
	env.DB.ColdRestart()
	v90, err := Run(env, VNOJOIN, q)
	if err != nil {
		t.Fatal(err)
	}
	if v90.Elapsed < p90.Elapsed {
		t.Fatalf("at (90,90) value join (%v) beat pointer join (%v)", v90.Elapsed, p90.Elapsed)
	}
	q = env.BySelectivity(90, 10)
	env.DB.ColdRestart()
	p10, err := Run(env, NOJOIN, q)
	if err != nil {
		t.Fatal(err)
	}
	env.DB.ColdRestart()
	v10, err := Run(env, VNOJOIN, q)
	if err != nil {
		t.Fatal(err)
	}
	if v10.Elapsed >= p10.Elapsed {
		t.Fatalf("at (90,10) value join (%v) did not beat pointer join (%v)", v10.Elapsed, p10.Elapsed)
	}
}

func TestVNOJOINRequiresForeignKey(t *testing.T) {
	env, _ := envFor(t, 10, 3, derby.ClassCluster)
	env.ChildFKAttr = ""
	env.DB.ColdRestart()
	if _, err := Run(env, VNOJOIN, env.BySelectivity(10, 10)); err == nil {
		t.Fatal("missing foreign key accepted")
	}
}

// TestHandleDisciplineDuringRuns pins the §4.3 premise "there should not
// be swapping during the execution of any of the two given algorithms":
// every operator unreferences promptly, so the handle table never holds
// more than a couple of live representatives and ends every run empty.
func TestHandleDisciplineDuringRuns(t *testing.T) {
	env, _ := envFor(t, 50, 10, derby.ClassCluster)
	for _, algo := range append(Algorithms(), HHJ, SMJ, VNOJOIN) {
		env.DB.ColdRestart()
		if _, err := Run(env, algo, env.BySelectivity(50, 50)); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if live := env.DB.Handles.Live(); live != 0 {
			t.Fatalf("%s leaked %d handles", algo, live)
		}
		// The §4.4 structure is 60 bytes; holding at most a parent and a
		// child at once bounds the table at ~2 handles.
		if max := env.DB.Handles.MaxBytes(); max > 3*60 {
			t.Fatalf("%s kept %d bytes of handles live", algo, max)
		}
	}
}
