package core

import (
	"strconv"
	"strings"
	"testing"
)

// testRunner uses SF=40 (50×1000 and 25,000×3): every memory ratio is
// preserved, so the paper's shapes must hold while tests stay fast.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(Config{SF: 40, Seed: 1997})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestMachineForSFPreservesRatios(t *testing.T) {
	m1 := MachineForSF(1)
	m10 := MachineForSF(10)
	if m10.ClientCache != m1.ClientCache/10 || m10.HashBudget != m1.HashBudget/10 ||
		m10.ServerCache != m1.ServerCache/10 {
		t.Fatalf("scaling broken: %+v vs %+v", m1, m10)
	}
}

func TestConfigFromEnv(t *testing.T) {
	t.Setenv(ScaleEnvVar, "25")
	if cfg := ConfigFromEnv(); cfg.SF != 25 {
		t.Fatalf("SF = %d", cfg.SF)
	}
	t.Setenv(ScaleEnvVar, "junk")
	if cfg := ConfigFromEnv(); cfg.SF != DefaultSF {
		t.Fatalf("bad env: SF = %d", cfg.SF)
	}
	if _, err := NewRunner(Config{SF: 0}); err == nil {
		t.Fatal("SF=0 accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Run("F99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"F6", "F7", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "L1", "H1", "A1", "B1", "O1", "M1", "D1", "P1", "R1", "S1", "V1", "W1"}
	got := ExperimentIDs()
	if len(got) != len(want) {
		t.Fatalf("registry: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Full-scan pages constant across selectivities.
	first := cell(t, tab, 0, 2)
	for i := range tab.Rows {
		if cell(t, tab, i, 2) != first {
			t.Fatalf("full-scan pages vary: row %d", i)
		}
	}
	// At 0.1% the index reads far fewer pages than the scan; at 90% more.
	if cell(t, tab, 0, 4) >= first {
		t.Fatal("index at 0.1% should read fewer pages than the scan")
	}
	last := len(tab.Rows) - 1
	if cell(t, tab, last, 4) <= first {
		t.Fatal("index at 90% should read more pages than the scan (re-reads)")
	}
	// Crossover threshold note matches the paper's 1–5% bracket.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "selectivity") && strings.Contains(n, "threshold") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing crossover note: %v", tab.Notes)
	}
}

func TestFig7SortedIndexAlwaysWins(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		sorted, full := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if sorted >= full {
			t.Fatalf("row %v: sorted index (%v) not faster than scan (%v)", tab.Rows[i][0], sorted, full)
		}
	}
	// Both columns grow with selectivity.
	for i := 1; i < len(tab.Rows); i++ {
		if cell(t, tab, i, 1) <= cell(t, tab, i-1, 1) || cell(t, tab, i, 2) <= cell(t, tab, i-1, 2) {
			t.Fatal("times not monotone in selectivity")
		}
	}
}

func TestFig9Breakdown(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	// The standard scan steps the cursor over the whole collection, the
	// index scan never does.
	steps := byName["scan cursor steps"]
	if steps == nil || steps[2] != "0" || steps[1] == "0" {
		t.Fatalf("cursor steps: %v", steps)
	}
	// Handles: 100% vs 90% of the collection.
	scanH, _ := strconv.Atoi(byName["handles got+unref"][1])
	idxH, _ := strconv.Atoi(byName["handles got+unref"][2])
	if idxH >= scanH || idxH*10 < scanH*8 {
		t.Fatalf("handles: scan=%d idx=%d (want idx ≈ 90%% of scan)", scanH, idxH)
	}
	if byName["rids sorted"][2] == "0" {
		t.Fatal("sorted scan sorted no rids")
	}
}

func TestFig10Shapes(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		algo, rel, swapped := row[0], row[2], row[7]
		formula, measured := cell(t, tab, i, 5), cell(t, tab, i, 6)
		if algo == "PHJ" && measured != formula {
			t.Fatalf("row %d: PHJ measured %.4f != formula %.4f", i, measured, formula)
		}
		if algo == "CHJ" && measured > formula+0.01 {
			t.Fatalf("row %d: CHJ measured %.4f exceeds formula %.4f", i, measured, formula)
		}
		// The paper's swap commentary: 1:1000 tables never swap; the 1:3
		// tables swap at (90,90) for both algorithms.
		if rel == "1:1000" && swapped != "false" {
			t.Fatalf("row %d: 1:1000 table swapped", i)
		}
		if rel == "1:3" && row[3] == "90" && swapped != "true" {
			t.Fatalf("row %d: 1:3 (90,90) table did not swap", i)
		}
	}
}

// winners extracts the per-grid-cell winner of a Figure 11–14 table.
func winners(tab *Table) map[[2]string]string {
	out := map[[2]string]string{}
	for _, row := range tab.Rows {
		key := [2]string{row[0], row[1]}
		if _, seen := out[key]; !seen {
			out[key] = row[2] // rows are ranked; first is the winner
		}
	}
	return out
}

func TestFig11Shape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	w := winners(tab)
	// Hash joins or NOJOIN win everywhere; NL never does and is dreadful
	// except at small provider selectivity.
	for key, algo := range w {
		if algo == "NL" {
			t.Fatalf("NL won %v under class clustering 1:1000", key)
		}
	}
	// NL's ratio at (10,90) is catastrophic (paper: 80x).
	var nlRatio float64
	for i, row := range tab.Rows {
		if row[0] == "10" && row[1] == "90" && row[2] == "NL" {
			nlRatio = cell(t, tab, i, 3)
		}
	}
	if nlRatio < 20 {
		t.Fatalf("NL ratio at (10,90) = %.1f, want catastrophic (paper 80x)", nlRatio)
	}
}

func TestFig12RowWinnersMatchPaper(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	w := winners(tab)
	// Paper's winners: (10,10) PHJ (CHJ within 10%), (10,90) CHJ,
	// (90,10) PHJ, (90,90) NOJOIN.
	if got := w[[2]string{"10", "10"}]; got != "PHJ" && got != "CHJ" {
		t.Fatalf("(10,10) winner = %s", got)
	}
	if got := w[[2]string{"10", "90"}]; got != "CHJ" {
		t.Fatalf("(10,90) winner = %s, want CHJ (PHJ swaps)", got)
	}
	if got := w[[2]string{"90", "10"}]; got != "PHJ" {
		t.Fatalf("(90,10) winner = %s, want PHJ (CHJ swaps)", got)
	}
	if got := w[[2]string{"90", "90"}]; got != "NOJOIN" {
		t.Fatalf("(90,90) winner = %s, want NOJOIN (both hash tables swap)", got)
	}
}

func TestFig13And14NavigationWins(t *testing.T) {
	r := testRunner(t)
	for _, run := range []func() (*Table, error){r.Fig13, r.Fig14} {
		tab, err := run()
		if err != nil {
			t.Fatal(err)
		}
		w := winners(tab)
		nl := 0
		for key, algo := range w {
			if algo != "NL" && algo != "NOJOIN" {
				t.Fatalf("%s: %v won under composition clustering", tab.ID, key)
			}
			if algo == "NL" {
				nl++
			}
		}
		if nl < 3 {
			t.Fatalf("%s: NL won only %d/4 cells", tab.ID, nl)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	var sumRandom, sumClass float64
	for i, row := range tab.Rows {
		// Composition winner is navigation in every configuration.
		if comp := row[7]; comp != "NL" && comp != "NOJOIN" {
			t.Fatalf("row %d: composition winner %s", i, comp)
		}
		// Random organization never beats class clustering by more than
		// noise (its winners pay interleaving dilution).
		tRandom, tClass := cell(t, tab, i, 4), cell(t, tab, i, 6)
		if tRandom < tClass*0.99 {
			t.Fatalf("row %d: random (%.1fs) beat class (%.1fs)", i, tRandom, tClass)
		}
		sumRandom += tRandom
		sumClass += tClass
	}
	// And in aggregate it is clearly slower (the paper's "factor of 1.5
	// to 2" shows in the 1:3 rows; the 1:1000 rows dilute little).
	if sumRandom < sumClass*1.1 {
		t.Fatalf("random org total (%.1fs) not clearly slower than class (%.1fs)", sumRandom, sumClass)
	}
	// 1:1000 class/random winners are hash joins.
	for i := 0; i < 4; i++ {
		for _, col := range []int{3, 5} {
			if a := tab.Rows[i][col]; a != "PHJ" && a != "CHJ" {
				t.Fatalf("1:1000 row %d col %d winner %s, want a hash join", i, col, a)
			}
		}
	}
}

func TestLoadingAblations(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Loading()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	tuned := cell(t, tab, 0, 1)
	for i := 1; i < 3; i++ {
		if got := cell(t, tab, i, 1); got <= tuned {
			t.Fatalf("config %q (%.1fs) not slower than tuned (%.1fs)", tab.Rows[i][0], got, tuned)
		}
	}
	// The 4MB client cache slows the index-maintaining load (random
	// B+-tree leaf descents revisit pages) and costs extra RPC traffic.
	if small, big := cell(t, tab, 4, 1), cell(t, tab, 3, 1); small <= big {
		t.Fatalf("4MB cache load (%.1fs) not slower than 32MB (%.1fs)", small, big)
	}
	if smallRPC, bigRPC := cell(t, tab, 4, 6), cell(t, tab, 3, 6); smallRPC <= bigRPC {
		t.Fatalf("4MB cache RPCs (%v) not above 32MB (%v)", smallRPC, bigRPC)
	}
	// Only the index-after-load configuration relocates objects.
	for i, row := range tab.Rows {
		reloc := cell(t, tab, i, 3)
		if strings.Contains(row[0], "after load") {
			if reloc == 0 {
				t.Fatal("relocation storm did not relocate")
			}
		} else if reloc != 0 {
			t.Fatalf("config %q relocated %v objects", row[0], reloc)
		}
	}
	// Only standard transactions write log pages.
	for i, row := range tab.Rows {
		logs := cell(t, tab, i, 5)
		if strings.Contains(row[0], "standard") != (logs > 0) {
			t.Fatalf("config %q log pages = %v", row[0], logs)
		}
	}
}

func TestHandleAblations(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Handles()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	speedup := func(i int) float64 {
		s := strings.TrimSuffix(tab.Rows[i][3], "x")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("speedup cell %q", tab.Rows[i][3])
		}
		return v
	}
	// The cold full scan speeds up substantially; all workloads at least
	// do not regress; navigation gains less than the scan (the paper's
	// "without hurting navigation").
	if speedup(0) < 1.2 {
		t.Fatalf("full-scan speedup only %.2fx", speedup(0))
	}
	for i := range tab.Rows {
		if speedup(i) < 0.99 {
			t.Fatalf("workload %q regressed: %.2fx", tab.Rows[i][0], speedup(i))
		}
	}
	for _, navRow := range []int{2, 3} {
		if speedup(navRow) > speedup(0) {
			t.Fatalf("navigation gained more (%.2fx) than the scan (%.2fx)", speedup(navRow), speedup(0))
		}
	}
}

func TestStatsRecorded(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Fig7(); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Len() == 0 {
		t.Fatal("no stats recorded")
	}
	all, err := r.Stats.All()
	if err != nil {
		t.Fatal(err)
	}
	if !all[0].Cold || all[0].Database == "" {
		t.Fatalf("stat entry: %+v", all[0])
	}
}

func TestJoinRunCacheReused(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Fig11(); err != nil {
		t.Fatal(err)
	}
	runs := r.shared.joinRuns.Len()
	if _, err := r.Fig11(); err != nil {
		t.Fatal(err)
	}
	if r.shared.joinRuns.Len() != runs {
		t.Fatalf("re-running Fig11 added runs: %d → %d", runs, r.shared.joinRuns.Len())
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "T", Title: "title", Columns: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow(1, 2.5)
	out := tab.String()
	for _, want := range []string{"T — title", "a", "bb", "2.50", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestSortJoinsAblation(t *testing.T) {
	r := testRunner(t)
	tab, err := r.SortJoins()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		hash, smj := cell(t, tab, i, 4), cell(t, tab, i, 5)
		if row[7] == "false" && smj <= hash {
			t.Fatalf("row %d: in-memory SMJ (%.2fs) not slower than hash (%.2fs)", i, smj, hash)
		}
	}
}

func TestOptimizerAccuracy(t *testing.T) {
	r := testRunner(t)
	tab, err := r.OptimizerAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 { // 2 scales × 3 clusterings × 4 cells
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	costHits, heurHits := 0, 0
	for _, row := range tab.Rows {
		if row[6] == "✓" {
			costHits++
		}
		if row[8] == "✓" {
			heurHits++
		}
	}
	// The cost model must clearly beat the navigation-biased heuristic
	// and get a solid majority of cells right.
	if costHits <= heurHits {
		t.Fatalf("cost-based hits %d not above heuristic %d", costHits, heurHits)
	}
	if costHits < len(tab.Rows)*8/10 {
		t.Fatalf("cost-based only %d/%d", costHits, len(tab.Rows))
	}
}

func TestClusteredIndexExperiment(t *testing.T) {
	r := testRunner(t)
	tab, err := r.ClusteredIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		cluPages := cell(t, tab, i, 2)
		uncPages := cell(t, tab, i, 4)
		srtPages := cell(t, tab, i, 6)
		if cluPages >= uncPages {
			t.Fatalf("row %d: clustered read %v pages vs unclustered %v", i, cluPages, uncPages)
		}
		if srtPages > uncPages {
			t.Fatalf("row %d: sorted unclustered read more than unsorted", i)
		}
	}
	// Clustered pages grow roughly linearly with selectivity: 90% reads
	// ~90x the pages of 1%.
	lo, hi := cell(t, tab, 0, 2), cell(t, tab, 3, 2)
	if hi < lo*50 || hi > lo*130 {
		t.Fatalf("clustered scaling: %v pages at 1%%, %v at 90%%", lo, hi)
	}
}

func TestWarmColdExperiment(t *testing.T) {
	r := testRunner(t)
	tab, err := r.WarmCold()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	ratios := map[string]float64{}
	for i, row := range tab.Rows {
		cold, warm := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if warm >= cold {
			t.Fatalf("%s: warm (%v) not faster than cold (%v)", row[0], warm, cold)
		}
		ratios[row[0]] = cold / warm
	}
	// The hash joins' working set (10% of the patients, sequential) fits
	// the client cache, so they benefit from warmth far more than NL,
	// whose random navigation floods the cache either way.
	if ratios["PHJ"] <= ratios["NL"] {
		t.Fatalf("warmth ratios: PHJ %.2f not above NL %.2f", ratios["PHJ"], ratios["NL"])
	}
}

func TestRidsOrHandles(t *testing.T) {
	r := testRunner(t)
	tab, err := r.RidsOrHandles()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		ridT, hT := cell(t, tab, i, 2), cell(t, tab, i, 4)
		if hT <= ridT {
			t.Fatalf("row %d: handle table (%.2fs) not slower than rid table (%.2fs)", i, hT, ridT)
		}
		ridMB, hMB := cell(t, tab, i, 3), cell(t, tab, i, 5)
		if hMB < ridMB*7 {
			t.Fatalf("row %d: handle table %.3fMB not ~7.5x rid table %.3fMB", i, hMB, ridMB)
		}
	}
}

func TestPrefetchExperiment(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Prefetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Within each workload block, RPCs drop sharply with batch size and
	// elapsed time never grows.
	for block := 0; block < 2; block++ {
		base := block * 3
		rpc1, rpc8, rpc32 := cell(t, tab, base, 3), cell(t, tab, base+1, 3), cell(t, tab, base+2, 3)
		// The sorted scan's index-leaf reads stay unbatched, so require a
		// 3x collapse rather than the full batch factor.
		if rpc8 > rpc1/3 || rpc32 > rpc8 {
			t.Fatalf("block %d: RPCs %v → %v → %v did not collapse", block, rpc1, rpc8, rpc32)
		}
		t1, t32 := cell(t, tab, base, 2), cell(t, tab, base+2, 2)
		if t32 > t1 {
			t.Fatalf("block %d: read-ahead slowed the workload (%v → %v)", block, t1, t32)
		}
	}
}

func TestDoctorRetires(t *testing.T) {
	r := testRunner(t)
	tab, err := r.DoctorRetires()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		actual, naive := cell(t, tab, i, 2), cell(t, tab, i, 4)
		if naive < actual*10 {
			t.Fatalf("row %d: naive (%v) not clearly worse than header-driven (%v)", i, naive, actual)
		}
		if updates := cell(t, tab, i, 1); updates <= 0 {
			t.Fatalf("row %d: no updates", i)
		}
	}
}

func TestPointerVsValue(t *testing.T) {
	r := testRunner(t)
	tab, err := r.PointerVsValue()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		ratio := cell(t, tab, i, 5)
		switch row[2] {
		case "90": // parents needed anyway: pointer join never loses
			if ratio < 0.995 {
				t.Fatalf("row %d: value join won at sel(prov)=90 (ratio %.3f)", i, ratio)
			}
		case "10": // selective key filter: value join never loses badly
			if ratio > 1.0 {
				t.Fatalf("row %d: value join lost at sel(prov)=10 (ratio %.3f)", i, ratio)
			}
		}
	}
}

func TestMeasureElapsed(t *testing.T) {
	r := testRunner(t)
	tab, err := r.MeasureElapsed()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 32 { // 2 DBs × 4 cells × 4 algorithms
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	divergentWithoutReason := 0
	swapsFlagged := 0
	for i, row := range tab.Rows {
		ratio := cell(t, tab, i, 6)
		if ratio > 2 && row[7] == "" {
			divergentWithoutReason++
		}
		if strings.Contains(row[7], "swapped") {
			swapsFlagged++
		}
	}
	if divergentWithoutReason != 0 {
		t.Fatalf("%d divergent runs without a reason", divergentWithoutReason)
	}
	// The 1:3 grid swaps several hash tables; they must be flagged.
	if swapsFlagged < 3 {
		t.Fatalf("only %d swapped runs flagged", swapsFlagged)
	}
}

// TestBackendCrossover pins B1's three claims at SF 100 by name, where an
// answer-key rewrite cannot carry them away: the LSM's memtable absorbs
// wave writes the B+-tree pays, its post-wave point scans merge SSTables
// the B+-tree never has, and its bloom filters skip most of them.
func TestBackendCrossover(t *testing.T) {
	r, err := NewRunner(Config{SF: 100, Seed: 1997})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := r.Backends()
	if err != nil {
		t.Fatal(err)
	}
	row := map[string]int{}
	for i, cells := range tab.Rows {
		row[cells[0]] = i
	}
	bt, lsm := row["btree"], row["lsm"]
	if tab.Rows[bt][0] != "btree" || tab.Rows[lsm][0] != "lsm" {
		t.Fatalf("B1 rows: %v", tab.Rows)
	}
	if w, b := cell(t, tab, lsm, 3), cell(t, tab, bt, 3); w >= b {
		t.Errorf("write absorption: LSM wave writes %v not below btree %v", w, b)
	}
	if s, b := cell(t, tab, lsm, 5), cell(t, tab, bt, 5); s <= b {
		t.Errorf("read amplification: LSM point scans %v not above btree %v", s, b)
	}
	skip, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[lsm][7], "%"), 64)
	if err != nil || skip < 50 {
		t.Errorf("bloom savings: LSM skip %q below 50%%", tab.Rows[lsm][7])
	}
}
