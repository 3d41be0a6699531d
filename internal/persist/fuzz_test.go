package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"treebench/internal/derby"
)

// FuzzLoadSnapshot drives the header and section-table decoder (and the
// section codecs behind it) with arbitrary bytes. The contract under
// fuzzing is total: Load either returns a snapshot or a typed error —
// it must never panic, whatever the file holds. Seeded with a valid save
// so the fuzzer starts past the magic check.
func FuzzLoadSnapshot(f *testing.F) {
	path, _ := savedSnapshot(f)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerLen])
	f.Add([]byte{})
	// A header claiming eight sections with a truncated table.
	f.Add(valid[:headerLen+tableEntryLen/2])
	// One flipped byte mid-file.
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x01
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.tbsp")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		snap, err := Load(p)
		if err != nil {
			return
		}
		// An accepted file must behave: forking a session exercises the
		// restored catalog.
		if snap.Engine.Pages() < 0 {
			t.Fatal("negative page count")
		}
	})
}

// FuzzDecodeCommit drives the WAL commit-record decoder with arbitrary
// payloads. A payload reaches DecodeCommit only after the log's CRC
// passed, so anything it cannot parse is a format disagreement: the
// contract is a record or a typed ErrFormat, never a panic and never
// another kind of error. Seeded with both shapes a log can hold — the
// slim record EncodeCommit writes and the full-derby-section record
// older logs carry — for a plain and a schema-growth wave each.
func FuzzDecodeCommit(f *testing.F) {
	_, _, root := newChainFixture(f)
	spec := derby.DefaultWaveSpec()
	for _, wave := range []uint64{1, 4} {
		d := root.ForkMutable()
		if _, err := derby.ApplyWave(d, wave, spec); err != nil {
			f.Fatal(err)
		}
		es, delta, err := d.DB.Publish()
		if err != nil {
			f.Fatal(err)
		}
		st := root.WithEngine(es).State()
		slim := EncodeCommit(1, wave, delta, st)
		f.Add(slim)
		f.Add(slim[:len(slim)/2])
		f.Add(encodeCommitFull(1, wave, delta, st))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeCommit(data)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// An accepted record must behave: applying it validates the
		// catalog against the parent it names, by error, not by panic.
		if _, err := rec.Apply(root, 0); err == nil && rec.ParentPages != root.Engine.Base().NumPages() {
			t.Fatal("applied over a parent of the wrong size")
		}
	})
}
