package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/join"
	"treebench/internal/oql"
)

// explainAnswers is the planner's answer key: every estimate the cost-based
// planner prints for O1's cells, so that a change to how an estimate is
// computed shows up line by line even when no chosen plan moves.
const explainAnswers = "../../testdata/answers/explain.txt"

// explainBytes plans, for every O1 cell (both scales × three clusterings ×
// selGrid) at SF 100 and SF 20, O1's tree join and the two selections that
// drive it, cost-based with the hybrid hash join enabled, and returns the
// concatenated Explain texts.
func explainBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sf := range []int{100, 20} {
		r, err := NewRunner(Config{SF: sf, Seed: 1997, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range r.bothScales() {
			for _, cl := range []derby.Clustering{derby.ClassCluster, derby.RandomOrg, derby.CompositionCluster} {
				err := r.withDataset(sc[0], sc[1], cl, func(d *derby.Dataset) error {
					pl := &oql.Planner{DB: d.DB, Strategy: oql.CostBased, EnableHHJ: true}
					for _, sel := range selGrid {
						q := join.EnvForDerby(d).BySelectivity(sel[0], sel[1])
						fmt.Fprintf(&buf, "# sf %d %s %s %d/%d\n", sf, dbLabel(sc[0], sc[1]), cl, sel[0], sel[1])
						for _, src := range []string{
							fmt.Sprintf("select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < %d and p.upin < %d", q.K1, q.K2),
							fmt.Sprintf("select pa.age from pa in Patients where pa.mrn < %d", q.K1),
							fmt.Sprintf("select p.name from p in Providers where p.upin < %d", q.K2),
						} {
							plan, err := pl.PlanSource(src)
							if err != nil {
								return err
							}
							fmt.Fprintf(&buf, "%s\n", plan.Explain())
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestExplainAnswerKey checks every O1 estimate against the committed key.
// A change that moves an estimate rewrites the key with -update and lists
// every moved line in CHANGES.md:
// go test ./internal/core -run TestExplainAnswerKey -update.
func TestExplainAnswerKey(t *testing.T) {
	got := explainBytes(t)
	if *update {
		if err := os.WriteFile(explainAnswers, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(explainAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Explain output diverges from the answer key %s at line %d",
			explainAnswers, firstDiffLine(got, want))
	}
}
