package histogram

import "testing"

// BenchmarkBuild times Build over 100 000 keys in the two orders it
// meets: shuffled, and ascending as an index scan delivers them (what
// Publish pays per commit for each index the wave invalidated).
func BenchmarkBuild(b *testing.B) {
	shuffled := make([]int64, 100000)
	sorted := make([]int64, len(shuffled))
	for i := range shuffled {
		shuffled[i] = int64(i * 2654435761 % 1000000)
		sorted[i] = int64(i / 2)
	}
	for _, c := range []struct {
		name string
		base []int64
	}{{"shuffled", shuffled}, {"sorted", sorted}} {
		b.Run(c.name, func(b *testing.B) {
			keys := make([]int64, len(c.base))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, c.base)
				if Build(keys, 64) == nil {
					b.Fatal("nil histogram")
				}
			}
		})
	}
}

func BenchmarkSelectivity(b *testing.B) {
	keys := make([]int64, 100000)
	for i := range keys {
		keys[i] = int64(i)
	}
	h := Build(keys, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Selectivity(int64(i%50000), int64(i%50000+10000)) < 0 {
			b.Fatal("negative")
		}
	}
}
