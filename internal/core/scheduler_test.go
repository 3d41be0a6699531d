package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"treebench/internal/derby"
)

// update rewrites the answer key from the current code instead of checking
// against it: go test ./internal/core -run TestParallelRunAllDeterministic -update.
var update = flag.Bool("update", false, "rewrite testdata/answers from the current output")

// allHHJAnswers is the answer key: every experiment's tables at SF 100 with
// the hybrid-hash column, exactly as `treebench -all -hhj -sf 100` prints
// them below its header line.
const allHHJAnswers = "../../testdata/answers/all-hhj-sf100.txt"

// runAllBytes runs every registered experiment, with the hybrid-hash
// extension, on a fresh runner with the given worker count and returns the
// concatenated rendered tables.
func runAllBytes(t *testing.T, jobs int) []byte {
	t.Helper()
	r, err := NewRunner(Config{SF: 100, Seed: 1997, Jobs: jobs, EnableHHJ: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiffLine returns the 1-based line at which a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			break
		}
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// TestParallelRunAllDeterministic is the regression gate for all
// concurrency work and the answer key across commits: every experiment run
// sequentially must render exactly the committed answer key, and run again
// under the parallel scheduler must render the same bytes, because elapsed
// time is simulated per dataset and never touches the wall clock. A change
// that moves an answer rewrites the key with -update and says why.
func TestParallelRunAllDeterministic(t *testing.T) {
	seq := runAllBytes(t, 1)
	if *update {
		if err := os.MkdirAll(filepath.Dir(allHHJAnswers), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allHHJAnswers, seq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(allHHJAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, want) {
		t.Fatalf("sequential output diverges from the answer key %s at line %d\nsequential %d bytes, answer key %d bytes",
			allHHJAnswers, firstDiffLine(seq, want), len(seq), len(want))
	}
	par := runAllBytes(t, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel (-j 4) output diverges from sequential at line %d\nsequential %d bytes, parallel %d bytes",
			firstDiffLine(seq, par), len(seq), len(par))
	}
	if len(seq) == 0 {
		t.Fatal("RunAll produced no output")
	}
}

func TestRunManyEmitsInOrder(t *testing.T) {
	r, err := NewRunner(Config{SF: 100, Seed: 1997})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"F7", "F6", "W1"}
	var got []string
	err = r.RunMany(ids, 3, func(tab *Table) error {
		got = append(got, tab.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "F7,F6,W1" {
		t.Fatalf("emit order %v, want the requested order %v", got, ids)
	}
}

func TestRunManyRejectsBadInput(t *testing.T) {
	r, err := NewRunner(Config{SF: 100, Seed: 1997})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := r.RunMany([]string{"F6", "NOPE"}, 2, func(*Table) error { ran = true; return nil }); err == nil {
		t.Fatal("unknown id accepted")
	} else if !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("unknown-id error does not name the id: %v", err)
	}
	if ran {
		t.Fatal("experiments ran despite an unknown id")
	}
	if err := r.RunMany([]string{"F6"}, 0, func(*Table) error { return nil }); err == nil {
		t.Fatal("jobs 0 accepted")
	}
}

func TestRunManyEmitError(t *testing.T) {
	r, err := NewRunner(Config{SF: 100, Seed: 1997})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("sink full")
	calls := 0
	err = r.RunMany([]string{"F6", "F7", "W1"}, 2, func(*Table) error {
		calls++
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing, want 1", calls)
	}
}

// TestSingleflightDatasetGeneration hammers the dataset cache from many
// goroutines: generation is singleflight (every caller's session forks off
// the same frozen snapshot), while the sessions themselves are private.
func TestSingleflightDatasetGeneration(t *testing.T) {
	r, err := NewRunner(Config{SF: 100, Seed: 1997})
	if err != nil {
		t.Fatal(err)
	}
	p, a := r.smallScale()
	const callers = 8
	sessions := make([]*derby.Dataset, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], errs[i] = r.dataset(p, a, derby.ClassCluster)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if n := r.shared.snapshots.Len(); n != 1 {
		t.Fatalf("generated %d snapshots for one configuration, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if sessions[i].DB == sessions[0].DB {
			t.Fatalf("callers %d and 0 share an engine session", i)
		}
	}
}

// TestConfigFromEnvJobs: the scheduler width is DefaultJobs unless the
// -j flag says otherwise; no environment variable overrides it.
func TestConfigFromEnvJobs(t *testing.T) {
	if got := ConfigFromEnv().Jobs; got != DefaultJobs() {
		t.Errorf("Jobs = %d, want DefaultJobs() = %d", got, DefaultJobs())
	}
}
