package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestMeterDiskReadCost(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	for i := 0; i < 100; i++ {
		m.DiskRead()
	}
	if got, want := m.Elapsed(), time.Second; got != want {
		t.Fatalf("100 page reads took %v, want %v", got, want)
	}
	if m.N.DiskReads != 100 {
		t.Fatalf("DiskReads = %d, want 100", m.N.DiskReads)
	}
}

// TestPaperScanArithmetic checks the §4.2 anchor: scanning the 2M-patient
// collection and touching a handle per object should land near the paper's
// 802 s. Patients in the selection experiments are indexed, so each record
// carries the 8-slot index header (§3.2), packing ≈37 per page ⇒ ≈54k pages
// (the paper's ≈550 s of read time at 10 ms/page). We accept a ±15% band
// because our page count derives from record packing, not the paper's
// rounded figure.
func TestPaperScanArithmetic(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	const pages = 54054 // 2e6 indexed patients at 37 per page
	const objects = 2e6
	for i := 0; i < pages; i++ {
		m.DiskRead()
	}
	for i := 0; i < objects; i++ {
		m.ScanNext()
		m.HandleGet()
		m.AttrGet()
		m.Compare()
		m.HandleUnref()
	}
	got := m.Elapsed().Seconds()
	if got < 680 || got > 920 {
		t.Fatalf("full cold scan = %.1fs, want ≈802s (±15%%)", got)
	}
}

// TestPaperResultBuildArithmetic checks the other §4.2 anchor: building a
// collection of 1.8M integers costs about 1100 s in standard mode.
func TestPaperResultBuildArithmetic(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	for i := 0; i < 1_800_000; i++ {
		m.ResultAppend()
	}
	got := m.Elapsed().Seconds()
	if got < 990 || got > 1210 {
		t.Fatalf("building 1.8M results = %.1fs, want ≈1100s (±10%%)", got)
	}
}

// TestSlimHandleCharging runs one HandleGet fat, then one slim. Slim mode
// prices every counted event, so it changes only between runs: the meter is
// Reset in between, as ColdRestart does between H1's two runs.
func TestSlimHandleCharging(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	m.HandleGet()
	fat := m.Elapsed()
	if m.N.HandleGets != 1 {
		t.Fatalf("fat run HandleGets = %d, want 1", m.N.HandleGets)
	}
	m.Reset()
	m.SetSlimHandles(true)
	if !m.SlimHandles() {
		t.Fatal("SlimHandles not reported on")
	}
	m.HandleGet()
	slim := m.Elapsed()
	if slim >= fat {
		t.Fatalf("slim handle get (%v) not cheaper than fat (%v)", slim, fat)
	}
	if m.N.HandleGets != 1 {
		t.Fatalf("slim run HandleGets = %d, want 1", m.N.HandleGets)
	}
}

// TestPriceChargesEachCounter pins the pricing table: each counter set to 1
// alone prices at its own constant, fat and slim, and the five free
// counters price 0. Every constant of the model is a distinct power of two,
// so a counter priced at a neighbour's constant fails.
func TestPriceChargesEachCounter(t *testing.T) {
	var m CostModel
	for i, p := range m.Fields() {
		*p = time.Duration(1) << i
	}
	want := map[string][2]time.Duration{ // counter → {fat, slim}
		"DiskReads":      {m.PageRead, m.PageRead},
		"DiskWrites":     {m.PageWrite, m.PageWrite},
		"RPCs":           {m.RPC, m.RPC},
		"RPCBytes":       {0, 0},
		"ServerHits":     {0, 0},
		"ServerToClient": {0, 0},
		"ClientHits":     {0, 0},
		"ClientFaults":   {0, 0},
		"LogPages":       {m.LogWrite, m.LogWrite},
		"Locks":          {m.Lock, m.Lock},
		"ScanNexts":      {m.ScanNext, m.SlimScanNext},
		"HandleGets":     {m.HandleGet, m.SlimHandleGet},
		"HandleUnrefs":   {m.HandleUnref, m.SlimHandleUnref},
		"AttrGets":       {m.AttrGet, m.AttrGet},
		"Compares":       {m.Compare, m.Compare},
		"HashInserts":    {m.HashInsert, m.HashInsert},
		"HashProbes":     {m.HashProbe, m.HashProbe},
		"ResultAppends":  {m.ResultAppend, m.SlimResultAppend},
		"SortSteps":      {m.SortPerCompare, m.SortPerCompare},
		"SwapReads":      {m.SwapRead, m.SwapRead},
		"SwapWrites":     {m.SwapWrite, m.SwapWrite},
	}
	var zero Counters
	if len(zero.Fields()) != len(want) {
		t.Fatalf("pricing table has %d rows for %d counters", len(want), len(zero.Fields()))
	}
	for i := range zero.Fields() {
		name := reflect.TypeOf(zero).Field(i).Name
		w, ok := want[name]
		if !ok {
			t.Fatalf("counter %s has no row in the pricing table", name)
		}
		var c Counters
		*c.Fields()[i] = 1
		var e Expected
		*e.Fields()[i] = 1
		for j, slim := range []bool{false, true} {
			if got := time.Duration(c.Price(m, slim)); got != w[j] {
				t.Errorf("%s = 1 (slim %v) prices %v, want %v", name, slim, got, w[j])
			}
			if got := e.Price(m, slim); got != float64(w[j]) {
				t.Errorf("expected %s = 1 (slim %v) prices %v, want %v", name, slim, got, float64(w[j]))
			}
		}
	}
}

// TestPriceAllocatesNothing pins Price at zero allocations for both
// instances: the meter prices every query's counters and the planner
// prices every alternative it considers.
func TestPriceAllocatesNothing(t *testing.T) {
	m := DefaultCostModel()
	c := Counters{DiskReads: 3, HandleGets: 5, ResultAppends: 7}
	e := Expected{DiskReads: 3.5, HandleGets: 5, SortSteps: 7.25}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += float64(c.Price(m, false)) }); n != 0 {
		t.Errorf("Counters.Price allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += e.Price(m, true) }); n != 0 {
		t.Errorf("Expected.Price allocates %v objects per call", n)
	}
	if sink == 0 {
		t.Fatal("prices summed to 0")
	}
}

func TestMissRates(t *testing.T) {
	var c Counters
	if c.ClientMissRate() != 0 || c.ServerMissRate() != 0 {
		t.Fatal("empty counters should report 0 miss rates")
	}
	c.ClientHits, c.ClientFaults = 75, 25
	if got := c.ClientMissRate(); got != 25 {
		t.Fatalf("ClientMissRate = %v, want 25", got)
	}
	c.ServerHits, c.DiskReads = 10, 90
	if got := c.ServerMissRate(); got != 90 {
		t.Fatalf("ServerMissRate = %v, want 90", got)
	}
}

func TestSortCost(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	m.Sort(1)
	if m.Elapsed() != 0 {
		t.Fatal("sorting one element should be free")
	}
	// §4.2: sorting 1.8M Rids must stay small (tens of seconds) next to
	// the 250 s handle residue it eliminates. ⌈log₂ 1.8M⌉ = 21 levels.
	m.Sort(1_800_000)
	if got, want := m.Elapsed(), 1_800_000*21*time.Microsecond; got != want {
		t.Fatalf("sorting 1.8M rids = %v, want %v", got, want)
	}
	if m.N.SortSteps != 1_800_000*21 {
		t.Fatalf("SortSteps = %d, want %d", m.N.SortSteps, 1_800_000*21)
	}
}

func TestRegionNoSwapWhileWithinBudget(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	r := NewRegion(m, 1<<20)
	r.Grow(1 << 20) // exactly at budget
	for i := 0; i < 1000; i++ {
		r.RandomRead()
		r.RandomWrite()
	}
	if m.Elapsed() != 0 {
		t.Fatalf("in-budget region charged %v", m.Elapsed())
	}
	if r.Swapping() {
		t.Fatal("region at budget reports swapping")
	}
}

func TestRegionSwapCharges(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	r := NewRegion(m, 1<<20)
	r.Grow(2 << 20) // 50% resident
	if !r.Swapping() {
		t.Fatal("oversized region not swapping")
	}
	for i := 0; i < 1000; i++ {
		r.RandomRead()
	}
	// Expected faults = 1000 × 0.5 = 500.
	if got := m.N.SwapReads; got < 499 || got > 501 {
		t.Fatalf("SwapReads = %d, want ≈500", got)
	}
	m2 := NewMeter(DefaultCostModel())
	r2 := NewRegion(m2, 1<<20)
	r2.Grow(2 << 20)
	for i := 0; i < 1000; i++ {
		r2.RandomWrite()
	}
	if got := m2.N.SwapWrites; got < 499 || got > 501 {
		t.Fatalf("SwapWrites = %d, want ≈500", got)
	}
	if m2.Elapsed() >= m.Elapsed() {
		t.Fatalf("write faults (%v) should be cheaper than read faults (%v)", m2.Elapsed(), m.Elapsed())
	}
}

// Property: the deterministic fault accounting converges to the expected
// fault count for any budget/size/access mix.
func TestRegionFaultAccountingProperty(t *testing.T) {
	f := func(sizeKB uint16, accesses uint16) bool {
		size := int64(sizeKB%512+1) * 1024
		budget := int64(256) * 1024
		n := int(accesses%2000) + 1
		m := NewMeter(DefaultCostModel())
		r := NewRegion(m, budget)
		r.Grow(size)
		for i := 0; i < n; i++ {
			r.RandomRead()
		}
		want := float64(n) * r.missFraction()
		got := float64(m.N.SwapReads)
		return got >= want-1 && got <= want+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMachine(t *testing.T) {
	mc := DefaultMachine()
	if mc.RAM != 128<<20 || mc.ServerCache != 4<<20 || mc.ClientCache != 32<<20 {
		t.Fatalf("unexpected machine geometry: %+v", mc)
	}
	if mc.HashBudget <= 14<<20 || mc.HashBudget >= 57<<20 {
		t.Fatalf("HashBudget %d outside the paper's (14.52MB, 57.6MB) bracket", mc.HashBudget)
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	m.DiskRead()
	m.RPC(4096)
	m.HashInsert()
	m.HashProbe()
	m.Reset()
	if m.Elapsed() != 0 || m.N != (Counters{}) {
		t.Fatalf("reset left state: %v %+v", m.Elapsed(), m.N)
	}
}

// TestMeterAllChannels exercises every charging method once so their
// counters and costs stay wired (most are also covered through the engine
// packages; this is the in-package contract).
func TestMeterAllChannels(t *testing.T) {
	m := NewMeter(DefaultCostModel())
	m.DiskWrite()
	m.ServerHit()
	m.ServerToClient()
	m.ClientHit()
	m.ClientFault()
	m.LogWrite()
	m.Lock()
	m.ScanNext()
	m.AttrGet()
	m.Compares(5)
	m.ResultAppend()
	m.SwapRead()
	m.SwapWrite()
	n := m.Snapshot()
	checks := []struct {
		name string
		got  int64
	}{
		{"DiskWrites", n.DiskWrites}, {"ServerHits", n.ServerHits},
		{"ServerToClient", n.ServerToClient}, {"ClientHits", n.ClientHits},
		{"ClientFaults", n.ClientFaults}, {"LogPages", n.LogPages},
		{"Locks", n.Locks}, {"ScanNexts", n.ScanNexts},
		{"AttrGets", n.AttrGets}, {"ResultAppends", n.ResultAppends},
		{"SwapReads", n.SwapReads}, {"SwapWrites", n.SwapWrites},
	}
	for _, c := range checks {
		if c.got != 1 {
			t.Fatalf("%s = %d, want 1", c.name, c.got)
		}
	}
	if n.Compares != 5 {
		t.Fatalf("Compares = %d", n.Compares)
	}
	m.Compares(0) // no-op path
	if m.Snapshot().Compares != 5 {
		t.Fatal("Compares(0) charged")
	}
	// Slim-mode variants of the per-object costs are cheaper everywhere.
	fat := NewMeter(DefaultCostModel())
	fat.ScanNext()
	fat.ResultAppend()
	slim := NewMeter(DefaultCostModel())
	slim.SetSlimHandles(true)
	slim.ScanNext()
	slim.ResultAppend()
	if slim.Elapsed() >= fat.Elapsed() {
		t.Fatalf("slim per-object costs (%v) not below fat (%v)", slim.Elapsed(), fat.Elapsed())
	}
	// Region accessors.
	r := NewRegion(m, 100)
	r.Grow(50)
	if r.Size() != 50 || r.budget != 100 || r.Swapping() {
		t.Fatalf("region accessors: size=%d budget=%d", r.Size(), r.budget)
	}
}

func TestRegionGrowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grow(-1) did not panic")
		}
	}()
	NewRegion(NewMeter(DefaultCostModel()), 1).Grow(-1)
}

// TestFieldListsCoverStructs pins Counters.Fields and CostModel.Fields to
// the struct definitions: entry i must be field i, so a field added to
// either struct without its list fails here instead of decoding as zero on
// the wire or silently dropping out of saved snapshots.
func TestFieldListsCoverStructs(t *testing.T) {
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	cf := c.Fields()
	if len(cf) != cv.NumField() {
		t.Fatalf("Counters.Fields lists %d of %d fields", len(cf), cv.NumField())
	}
	for i, p := range cf {
		if p != cv.Field(i).Addr().Interface().(*int64) {
			t.Errorf("Counters.Fields entry %d is not field %s", i, cv.Type().Field(i).Name)
		}
	}
	var m CostModel
	mv := reflect.ValueOf(&m).Elem()
	mf := m.Fields()
	if len(mf) != mv.NumField() {
		t.Fatalf("CostModel.Fields lists %d of %d fields", len(mf), mv.NumField())
	}
	for i, p := range mf {
		if p != mv.Field(i).Addr().Interface().(*time.Duration) {
			t.Errorf("CostModel.Fields entry %d is not field %s", i, mv.Type().Field(i).Name)
		}
	}

	a := Counters{DiskReads: 1, SwapWrites: 2}
	a.Add(Counters{DiskReads: 10, Compares: 3, SwapWrites: 20})
	if a != (Counters{DiskReads: 11, Compares: 3, SwapWrites: 22}) {
		t.Fatalf("Add = %+v", a)
	}
}
