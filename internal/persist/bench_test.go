package persist

import (
	"os"
	"path/filepath"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/session"
)

// The benchmark pair below answers the question the snapshot store
// exists for: what does a warm boot of the paper's 2000×1000 Derby
// database cost against generating it from scratch? Run both via
// `make bench-snap`; EXPERIMENTS.md records the observed ratio.

func benchConfig() derby.Config {
	return derby.DefaultConfig(2000, 1000, derby.ClassCluster)
}

func BenchmarkSnapshotGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := derby.Generate(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	dir, err := os.MkdirTemp("", "tbsp-bench-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "derby.tbsp")
	d, err := derby.Generate(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := d.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	if err := Save(path, snap); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSave sizes the one-time cost of writing the cache
// entry the loads above amortize.
func BenchmarkSnapshotSave(b *testing.B) {
	d, err := derby.Generate(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := d.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "tbsp-bench-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(filepath.Join(dir, "derby.tbsp"), snap); err != nil {
			b.Fatal(err)
		}
	}
}

// The pair below prices one commit on the write path at the live
// benchmark's scale (2000×100, growth every 48th wave as bench/ forces
// it): what ChainStore.Update costs the writer — wave, publish with the
// invalidated histograms rebuilt, encode, log, fsync — and what the first
// session forked from the new head costs a reader. Run both via
// `make bench-commit`; EXPERIMENTS.md records before and after the
// born-primed head and the slim record.

// commitsPerStore bounds one store's life: every growth wave widens the
// patient record, and at GrowEvery 48 the 38th no longer fits a page.
const commitsPerStore = 1024

func commitBenchStore(b *testing.B) *ChainStore {
	b.Helper()
	snapPath, walPath, _ := newChainFixtureAt(b, 2000, 100)
	spec := derby.DefaultWaveSpec()
	spec.GrowEvery = 48
	s, _, err := OpenChainStore(snapPath, walPath, spec)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkChainCommit(b *testing.B) {
	var s *ChainStore
	var walBytes uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%commitsPerStore == 0 {
			b.StopTimer()
			if s != nil {
				walBytes += s.Stats().Wal.Bytes
				s.Close()
			}
			s = commitBenchStore(b)
			b.StartTimer()
		}
		if _, _, err := s.Update(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	walBytes += s.Stats().Wal.Bytes
	s.Close()
	b.ReportMetric(float64(walBytes)/float64(b.N), "wal-bytes/commit")
}

func BenchmarkForkAfterCommit(b *testing.B) {
	var s *ChainStore
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		if i%commitsPerStore == 0 {
			if s != nil {
				s.Close()
			}
			s = commitBenchStore(b)
		}
		if _, _, err := s.Update(); err != nil {
			b.Fatal(err)
		}
		head := s.Head()
		b.StartTimer()
		sess := session.NewWith(head.Fork().DB, session.Config{})
		b.StopTimer()
		if sess.DB == nil {
			b.Fatal("no session")
		}
	}
	s.Close()
}
