package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"treebench/internal/derby"
)

// update rewrites the frame answer key from the current code instead of
// checking against it: go test ./internal/session -run TestFrameAnswerKey -update.
var update = flag.Bool("update", false, "rewrite testdata/answers from the current output")

// frameAnswers is the answer key for the bytes a statement's answer takes
// on the wire and on the screen: one "sha256  label" line per encoding.
const frameAnswers = "../../testdata/answers/wire-bytes.sha256"

// TestFrameAnswerKey pins, for every statement of batchStatements over a
// 200×100 Derby database, the encoded Result frame and the text
// WriteResult renders. A change to the wire codec or the renderer moves a
// line; one that means to rewrites the key with -update and says why.
func TestFrameAnswerKey(t *testing.T) {
	d, err := derby.Generate(derby.DefaultConfig(200, 100, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	s := New(sn.Fork().DB)
	var got []string
	add := func(label string, b []byte) {
		sum := sha256.Sum256(b)
		got = append(got, hex.EncodeToString(sum[:])+"  "+label)
	}
	for i, stmt := range batchStatements {
		res, err := s.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		w := ToWire(res, 10)
		var text bytes.Buffer
		WriteResult(&text, w, 10)
		add(fmt.Sprintf("statement %d result", i), w.Encode())
		add(fmt.Sprintf("statement %d text", i), text.Bytes())
	}

	if *update {
		if err := os.WriteFile(frameAnswers, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(frameAnswers)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d answers, key %s has %d", len(got), frameAnswers, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer %d moved:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
