package join

import (
	"fmt"
	"testing"

	"treebench/internal/derby"
)

// TestBatchedJoinsMatchScalar pins the vectorization invariant on every
// join algorithm against the handle-at-a-time reference in scalar_test.go:
// at every batch size (1 included) and worker count the product operators
// must reproduce the reference run's tuples, simulated elapsed time,
// Figure 3 counters, hash-table accounting and swap verdict exactly — with
// a hash budget the tables fit in and one they swap under, on queries that
// run as one chunk (10/10) and that fan out (90/90). The algorithms that
// keep the handle table (NOJOIN, VNOJOIN, HHJ) have no reference to differ
// from; they ride along compared against their own batch-1 run.
func TestBatchedJoinsMatchScalar(t *testing.T) {
	for _, hashBudget := range []int64{0, 8 << 10} {
		cfg := derby.DefaultConfig(200, 100, derby.ClassCluster)
		if hashBudget > 0 {
			cfg.Machine.HashBudget = hashBudget
		}
		d, err := derby.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		env := EnvForDerby(d)
		for _, sel := range [][2]int{{10, 10}, {90, 90}} {
			q := env.BySelectivity(sel[0], sel[1])
			for _, algo := range append(Algorithms(), SMJ, VNOJOIN, HHJ) {
				reference := runScalar
				if algo == NOJOIN || algo == VNOJOIN || algo == HHJ {
					reference = Run
				}
				env.DB.SetQueryJobs(1)
				env.DB.SetBatch(1)
				env.DB.ColdRestart()
				want, err := reference(env, algo, q)
				if err != nil {
					t.Fatalf("%s %+v reference: %v", algo, q, err)
				}
				for _, batch := range []int{1, 7, 1024} {
					for _, qj := range []int{1, 8} {
						label := fmt.Sprintf("%s %d/%d budget=%d batch=%d qj=%d", algo, sel[0], sel[1], hashBudget, batch, qj)
						env.DB.SetQueryJobs(qj)
						env.DB.SetBatch(batch)
						env.DB.ColdRestart()
						got, err := Run(env, algo, q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if got.Tuples != want.Tuples {
							t.Errorf("%s: %d tuples, want %d", label, got.Tuples, want.Tuples)
						}
						if got.Elapsed != want.Elapsed {
							t.Errorf("%s: elapsed %v, want %v", label, got.Elapsed, want.Elapsed)
						}
						if got.Counters != want.Counters {
							t.Errorf("%s: counters diverged\n got %+v\nwant %+v", label, got.Counters, want.Counters)
						}
						if got.HashTableBytes != want.HashTableBytes {
							t.Errorf("%s: table %d bytes, want %d", label, got.HashTableBytes, want.HashTableBytes)
						}
						if got.Swapped != want.Swapped {
							t.Errorf("%s: swapped %v, want %v", label, got.Swapped, want.Swapped)
						}
					}
				}
			}
		}
	}
}
