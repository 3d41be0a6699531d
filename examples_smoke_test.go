package treebench_test

// Runtime smoke tests for the example programs: each one builds and runs a
// real workload, so -short skips them.

import (
	"os/exec"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: not running the example programs")
	}
	cases := map[string]string{
		"./examples/quickstart":     "forked from one",
		"./examples/sessions":       "identical",
		"./examples/clustering":     "composition",
		"./examples/resultsdb":      "recorded 8 measurements",
		"./examples/evolution":      "reachability GC",
		"./examples/odmg":           "relationship verified consistent",
		"./examples/xmltree":        "associative",
		"./examples/joinstrategies": "spill partitions",
	}
	for dir, want := range cases {
		dir, want := dir, want
		t.Run(strings.TrimPrefix(dir, "./examples/"), func(t *testing.T) {
			out, err := exec.Command("go", "run", dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", dir, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Fatalf("%s output missing %q:\n%s", dir, want, out)
			}
		})
	}
}
