package index

import (
	"testing"

	"treebench/internal/storage"
)

func benchTree(b *testing.B, n int) (*Tree, *storage.Store) {
	b.Helper()
	s := storage.NewStore(0)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Rid: ridFor(i)}
	}
	tr, err := Build(s.Disk, 1, "bench", entries)
	if err != nil {
		b.Fatal(err)
	}
	return tr, s
}

func BenchmarkTreeInsert(b *testing.B) {
	s := storage.NewStore(0)
	tr, _ := New(s.Disk, 1, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(s.Disk, Entry{Key: int64(i * 2654435761 % 1000000), Rid: ridFor(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeLookup(b *testing.B) {
	tr, s := benchTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Lookup(s.Disk, int64(i%100000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeRangeScan(b *testing.B) {
	tr, s := benchTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		scan(tr, s.Disk, 0, 10000, func(Entry) (bool, error) { n++; return true, nil })
		if n != 10000 {
			b.Fatal(n)
		}
	}
}
