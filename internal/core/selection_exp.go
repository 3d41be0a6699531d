package core

import (
	"fmt"

	"treebench/internal/derby"
	"treebench/internal/selection"
	"treebench/internal/sim"
	"treebench/internal/stats"
)

// selectionDataset is the database the §4.2 selection experiments run on:
// the 2,000×1,000 class-clustered database, whose Patients extent carries
// the unclustered index on num. Each call returns a fresh private session
// forked from the shared snapshot, so no run lock is needed.
func (r *Runner) selectionDataset() (*derby.Dataset, error) {
	p, a := r.smallScale()
	return r.dataset(p, a, derby.ClassCluster)
}

// selPred builds `num > k` keeping selPermille‰ of the patients (the num
// values are a dense permutation of 1..N).
func selPred(n int, selPermille int) selection.Pred {
	k := int64(n) - int64(n)*int64(selPermille)/1000
	return selection.Pred{Attr: "num", Op: selection.Gt, K: k}
}

// coldSelection runs one access path cold on the caller's session and
// records it.
func (r *Runner) coldSelection(d *derby.Dataset, selPermille int, access selection.Access) (*selection.Result, error) {
	d.DB.ColdRestart()
	req := selection.Request{
		Extent:   d.Patients,
		Where:    selPred(d.NumPatients, selPermille),
		Projects: []string{"age"},
	}
	res, err := selection.Run(d.DB, req, access)
	if err != nil {
		return nil, err
	}
	r.logf("  selection %.1f%% via %-10s t=%.2fs pages=%d",
		float64(selPermille)/10, access, res.Elapsed.Seconds(), res.Counters.DiskReads)
	if r.Stats != nil {
		e := stats.Entry{
			Cold:            true,
			ProjectionType:  "attribute",
			Selectivity:     selPermille / 10,
			Text:            fmt.Sprintf("select pa.age from pa in Patients where pa.num > %d [%s]", req.Where.K, access),
			Database:        dbLabel(d.NumProviders, d.NumPatients/max(d.NumProviders, 1)),
			Cluster:         d.Clustering.String(),
			Algo:            string(access),
			ServerCacheSize: d.DB.Machine.ServerCache,
			ClientCacheSize: d.DB.Machine.ClientCache,
			SameWorkstation: true,
		}
		e.FromCounters(res.Elapsed, res.Counters)
		if _, err := r.Stats.Record(e); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig6 reproduces the §4.2 selection experiment the text walks through:
// selections on Patients at increasing selectivity, with no index and with
// the plain (unsorted) unclustered index. Expected shape: constant I/O for
// the scan, and an index that starts re-reading pages somewhere between 1
// and 5% selectivity, eventually exceeding the scan's page count.
func (r *Runner) Fig6() (*Table, error) {
	d, err := r.selectionDataset()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F6",
		Title:   "Selection on Patients: unclustered index vs no index (time in sec, pages read)",
		Columns: []string{"selectivity%", "no-index time", "no-index pages", "index time", "index pages"},
	}
	scanPages := int64(-1)
	var crossover float64 = -1
	for _, permille := range []int{1, 10, 50, 100, 300, 600, 900} {
		full, err := r.coldSelection(d, permille, selection.FullScan)
		if err != nil {
			return nil, err
		}
		idx, err := r.coldSelection(d, permille, selection.IndexScan)
		if err != nil {
			return nil, err
		}
		t.AddRow(float64(permille)/10,
			full.Elapsed.Seconds(), full.Counters.DiskReads,
			idx.Elapsed.Seconds(), idx.Counters.DiskReads)
		if scanPages == -1 {
			scanPages = full.Counters.DiskReads
		}
		if crossover < 0 && idx.Counters.DiskReads > full.Counters.DiskReads {
			crossover = float64(permille) / 10
		}
	}
	t.Notes = append(t.Notes,
		"full-scan page count is selectivity-independent (§4.2)",
		fmt.Sprintf("unclustered index exceeds the scan's page count from %.1f%% selectivity (paper: threshold between 1 and 5%%)", crossover))
	return t, nil
}

// Fig7 reproduces Figure 7: the sorted unclustered index scan against the
// no-index scan at 10/30/60/90% selectivity. The sorted index wins at every
// selectivity, even when it reads all collection pages plus the index.
func (r *Runner) Fig7() (*Table, error) {
	d, err := r.selectionDataset()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F7",
		Title:   "Comparing Sorted Unclustered Index with No Index (time in sec)",
		Columns: []string{"selectivity%", "unclustered index + sort", "no index"},
	}
	for _, pct := range []int{10, 30, 60, 90} {
		sorted, err := r.coldSelection(d, pct*10, selection.SortedIndexScan)
		if err != nil {
			return nil, err
		}
		full, err := r.coldSelection(d, pct*10, selection.FullScan)
		if err != nil {
			return nil, err
		}
		t.AddRow(pct, sorted.Elapsed.Seconds(), full.Elapsed.Seconds())
	}
	return t, nil
}

// Fig9 reproduces Figure 9's cost decomposition of the standard scan vs
// the sorted index scan at 90% selectivity: where does the time that is not
// spent on reads go?
func (r *Runner) Fig9() (*Table, error) {
	d, err := r.selectionDataset()
	if err != nil {
		return nil, err
	}
	scan, err := r.coldSelection(d, 900, selection.FullScan)
	if err != nil {
		return nil, err
	}
	sorted, err := r.coldSelection(d, 900, selection.SortedIndexScan)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F9",
		Title:   "Standard Scan vs Sorted Index Scan at 90%: cost difference breakdown",
		Columns: []string{"component", "standard scan", "sorted index scan"},
	}
	ioSec := func(n int64) float64 { return sim.Seconds(d.DB.Meter, sim.Counters{DiskReads: n}) }
	t.AddRow("pages read (I/O sec)",
		fmt.Sprintf("%d (%.1fs)", scan.Counters.DiskReads, ioSec(scan.Counters.DiskReads)),
		fmt.Sprintf("%d (%.1fs)", sorted.Counters.DiskReads, ioSec(sorted.Counters.DiskReads)))
	t.AddRow("scan cursor steps", scan.Counters.ScanNexts, sorted.Counters.ScanNexts)
	t.AddRow("handles got+unref", scan.Counters.HandleGets+scan.Counters.HandleUnrefs,
		sorted.Counters.HandleGets+sorted.Counters.HandleUnrefs)
	t.AddRow("rids sorted", 0, sorted.SortedRids)
	t.AddRow("integers compared", scan.Counters.Compares, sorted.Counters.Compares)
	t.AddRow("result appends", scan.Counters.ResultAppends, sorted.Counters.ResultAppends)
	t.AddRow("TOTAL time (sec)", scan.Elapsed.Seconds(), sorted.Elapsed.Seconds())
	nonIO := scan.Elapsed.Seconds() - ioSec(scan.Counters.DiskReads)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"standard scan spends %.1fs not on reads — the per-object handle management of §4.3 (paper: ≈250s at full scale)", nonIO))
	return t, nil
}
