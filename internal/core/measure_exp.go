package core

import (
	"fmt"

	"treebench/internal/derby"
	"treebench/internal/join"
	"treebench/internal/sim"
)

// MeasureElapsed validates §3.5's measurement lesson — "we discovered that
// elapsed time was as good a measure as anything else. In most cases, it
// evolved similarly to the number of RPCs and IOs. When this was not the
// case, there was always a good reason, e.g., a hash on a very large table
// implying a lot of memory swap" — by decomposing every Figure 11/12 run's
// elapsed time into its I/O-predicted share and flagging the divergent
// runs, which are exactly the swapped ones.
func (r *Runner) MeasureElapsed() (*Table, error) {
	t := &Table{
		ID:    "M1",
		Title: "Does elapsed time track I/Os? (§3.5) — divergences and their reasons",
		Columns: []string{"database", "sel pat%", "sel prov%", "algorithm",
			"elapsed (sec)", "I/O share", "elapsed/I/O", "reason if divergent"},
	}
	divergent, swaps := 0, 0
	for _, sc := range r.bothScales() {
		key := r.dsKeyFor(sc[0], sc[1], derby.ClassCluster)
		err := r.withDataset(sc[0], sc[1], derby.ClassCluster, func(d *derby.Dataset) error {
			for _, sel := range selGrid {
				for _, algo := range join.Algorithms() {
					res, err := r.coldJoin(d, key, sel[0], sel[1], algo)
					if err != nil {
						return err
					}
					ioSec := sim.Seconds(d.DB.Meter, sim.Counters{DiskReads: res.Counters.DiskReads})
					elapsed := res.Elapsed.Seconds()
					ratio := elapsed / ioSec
					reason := ""
					// "Similar" means I/O-dominated: past 2x, something else
					// (swap, result build, handle churn) is the story.
					if ratio > 2 {
						divergent++
						if res.Swapped {
							swaps++
							reason = fmt.Sprintf("hash table %.1fMB swapped", float64(res.HashTableBytes)/(1<<20))
						} else if res.Counters.ResultAppends > res.Counters.DiskReads*10 {
							reason = "result construction dominates"
						} else {
							reason = "per-object CPU dominates"
						}
					}
					t.AddRow(dbLabel(sc[0], sc[1]), sel[0], sel[1], string(algo),
						elapsed, ioSec, ratio, reason)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d of %d runs diverge from their I/O share by over 2x; %d of those are swapped hash tables — §3.5's 'always a good reason'", divergent, len(t.Rows), swaps),
		"the Figure 3 schema records elapsed time, RPCs and I/Os side by side for exactly this cross-check")
	return t, nil
}
