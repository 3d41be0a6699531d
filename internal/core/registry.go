package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// ExperimentInfo describes one runnable experiment for the CLI and docs.
type ExperimentInfo struct {
	ID    string
	Title string
	Run   func(r *Runner) (*Table, error)
}

// Experiments lists every reproduced table/figure plus the ablations, in
// presentation order.
func Experiments() []ExperimentInfo {
	return []ExperimentInfo{
		{"F6", "Selection: unclustered index vs no index across selectivities (§4.2)", (*Runner).Fig6},
		{"F7", "Figure 7: sorted unclustered index vs no index", (*Runner).Fig7},
		{"F9", "Figure 9: standard scan vs sorted index scan cost breakdown", (*Runner).Fig9},
		{"F10", "Figure 10: hash table sizes", (*Runner).Fig10},
		{"F11", "Figure 11: class clustering, 2x10^3 providers, 1:1000", (*Runner).Fig11},
		{"F12", "Figure 12: class clustering, 10^6 providers, 1:3", (*Runner).Fig12},
		{"F13", "Figure 13: composition clustering, 2x10^3 providers, 1:1000", (*Runner).Fig13},
		{"F14", "Figure 14: composition clustering, 10^6 providers, 1:3", (*Runner).Fig14},
		{"F15", "Figure 15: winning algorithms across physical organizations", (*Runner).Fig15},
		{"L1", "§3.2 loading ablations", (*Runner).Loading},
		{"H1", "§4.4 handle-management ablations", (*Runner).Handles},
		{"A1", "sort-merge join vs hash joins (§5.1's dropped alternative)", (*Runner).SortJoins},
		{"B1", "index backends: LSM write absorption vs read amplification", (*Runner).Backends},
		{"O1", "optimizer accuracy: cost-based vs heuristic vs measured", (*Runner).OptimizerAccuracy},
		{"M1", "does elapsed time track I/Os? (§3.5)", (*Runner).MeasureElapsed},
		{"D1", "a doctor retires: header-driven index maintenance (§4.4)", (*Runner).DoctorRetires},
		{"P1", "client-cache read-ahead (RPC batching)", (*Runner).Prefetch},
		{"R1", "hash table of Rids vs Handles (§4.1)", (*Runner).RidsOrHandles},
		{"S1", "clustered vs unclustered index selections (§4.2)", (*Runner).ClusteredIndex},
		{"V1", "pointer-based vs value-based navigation ([14])", (*Runner).PointerVsValue},
		{"W1", "cold vs warm caches (the paper's methodology, §2)", (*Runner).WarmCold},
	}
}

// ExperimentIDs returns the registered ids, sorted by presentation order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// experimentsByID indexes the registry once; the registry is static, so
// repeated Run calls skip the linear scan.
var experimentsByID = sync.OnceValue(func() map[string]ExperimentInfo {
	m := make(map[string]ExperimentInfo, len(Experiments()))
	for _, e := range Experiments() {
		m[e.ID] = e
	}
	return m
})

// sortedKnownIDs renders the known ids, sorted, exactly once for the
// unknown-experiment error.
var sortedKnownIDs = sync.OnceValue(func() string {
	ids := ExperimentIDs()
	sort.Strings(ids)
	return "[" + strings.Join(ids, " ") + "]"
})

// unknownExperiment is the error for an id not in the registry.
func unknownExperiment(id string) error {
	return fmt.Errorf("core: unknown experiment %q (known: %s)", id, sortedKnownIDs())
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (*Table, error) {
	e, ok := experimentsByID()[id]
	if !ok {
		return nil, unknownExperiment(id)
	}
	return e.Run(r)
}

// RunAll executes every experiment, formatting each table to w in
// presentation order. Independent experiments run concurrently on up to
// Config.Jobs workers (default DefaultJobs()); simulated time, priced from
// each dataset's own counters, makes the output byte-identical to a
// sequential run.
func (r *Runner) RunAll(w io.Writer) error {
	return r.RunMany(ExperimentIDs(), r.Config.jobs(), func(t *Table) error {
		t.Format(w)
		_, err := fmt.Fprintln(w)
		return err
	})
}
