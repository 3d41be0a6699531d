package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treebench/internal/backend"
	"treebench/internal/derby"
)

// update rewrites the bytes answer key from the current code instead of
// checking against it: go test ./internal/persist -run TestBytesAnswerKey -update.
var update = flag.Bool("update", false, "rewrite testdata/answers from the current output")

// persistAnswers is the answer key for every byte format persist writes:
// one "sha256  label" line per snapshot file or log.
const persistAnswers = "../../testdata/answers/persist-bytes.sha256"

// TestBytesAnswerKey pins the bytes of the snapshot file and the WAL
// record across commits: Save of a 200×100 Derby database for every
// clustering and index backend, the log of 200 commits over a chain base,
// and the base one compaction of that chain writes (whose lineage section
// carries the head's parent version). A change to any encoder moves a line;
// one that means to rewrites the key with -update and says why.
func TestBytesAnswerKey(t *testing.T) {
	var got []string
	add := func(label string, b []byte) {
		sum := sha256.Sum256(b)
		got = append(got, hex.EncodeToString(sum[:])+"  "+label)
	}
	dir := t.TempDir()
	for c := derby.ClassCluster; c <= derby.CompositionCluster; c++ {
		for _, kind := range backend.Kinds() {
			cfg := derby.DefaultConfig(200, 100, c)
			cfg.IndexBackend = kind
			ds, err := derby.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := ds.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.String()+"-"+kind+".tbsp")
			if err := Save(path, snap); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("save 200x100 %s %s", c, kind), mustRead(t, path))
		}
	}

	snapPath, walPath, _ := newChainFixture(t)
	spec := derby.DefaultWaveSpec()
	spec.GrowEvery = 48
	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, _, err := s.Update(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	add("wal after 200 commits", mustRead(t, walPath))
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	add("base after compacting v200", mustRead(t, snapPath))

	checkAnswers(t, persistAnswers, got)
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkAnswers compares lines against the key at path, or rewrites the key
// under -update.
func checkAnswers(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := strings.Split(strings.TrimSuffix(string(mustRead(t, path)), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d answers, key %s has %d", len(lines), path, len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("answer %d moved:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}
