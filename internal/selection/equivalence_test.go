package selection

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"treebench/internal/backend"
	"treebench/internal/derby"
	"treebench/internal/object"
	"treebench/internal/sim"
)

// TestBackendEquivalence pins the backend half of the repo's determinism
// invariant: the index and sorted-index selection access paths must
// render byte-identical result rows under every index backend, at every
// qj × batch combination — backends move the cost accounting, never the
// answer. Within one backend, the simulated meter totals must also be
// byte-identical across the qj × batch matrix (the pre-existing
// invariant, restated per backend).
func TestBackendEquivalence(t *testing.T) {
	accesses := []Access{IndexScan, SortedIndexScan}
	permilles := []int{50, 600}
	wantRows := map[string]string{} // access/selectivity → rendered rows, global across backends

	for _, kind := range backend.Kinds() {
		cfg := derby.DefaultConfig(40, 60, derby.ClassCluster)
		cfg.IndexBackend = kind
		d, err := derby.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: generate: %v", kind, err)
		}
		sn, err := d.Freeze()
		if err != nil {
			t.Fatalf("%s: freeze: %v", kind, err)
		}
		wantCounters := map[string]sim.Counters{} // per backend, across qj × batch
		for _, qj := range []int{1, 8} {
			for _, batch := range []int{1, 1024} {
				f := sn.Fork()
				f.DB.SetQueryJobs(qj)
				f.DB.SetBatch(batch)
				for _, access := range accesses {
					for _, permille := range permilles {
						key := fmt.Sprintf("%s/%d", access, permille)
						label := fmt.Sprintf("%s qj=%d batch=%d %s", kind, qj, batch, key)
						f.DB.ColdRestart()
						k := int64(d.NumPatients) - int64(d.NumPatients)*int64(permille)/1000
						chunks := map[int]*strings.Builder{}
						res, err := Run(f.DB, Request{
							Extent:   f.Patients,
							Where:    Pred{Attr: "num", Op: Gt, K: k},
							Projects: []string{"age", "mrn"},
							OnBatch: rowsOf(func(chunk int, vals []object.Value) error {
								b := chunks[chunk]
								if b == nil {
									b = &strings.Builder{}
									chunks[chunk] = b
								}
								fmt.Fprintf(b, "%v\n", vals)
								return nil
							}),
						}, access)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						var ids []int
						for c := range chunks {
							ids = append(ids, c)
						}
						sort.Ints(ids)
						var rows strings.Builder
						fmt.Fprintf(&rows, "rows=%d\n", res.Rows)
						for _, c := range ids {
							rows.WriteString(chunks[c].String())
						}
						if want, ok := wantRows[key]; !ok {
							wantRows[key] = rows.String()
						} else if rows.String() != want {
							t.Errorf("%s: rendered rows differ from the %s reference", label, backend.DefaultKind)
						}
						if want, ok := wantCounters[key]; !ok {
							wantCounters[key] = res.Counters
						} else if !reflect.DeepEqual(res.Counters, want) {
							t.Errorf("%s: meter counters differ across the qj×batch matrix\n got %+v\nwant %+v",
								label, res.Counters, want)
						}
					}
				}
			}
		}
	}
}
