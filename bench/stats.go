package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest-rank position of the p-th percentile among
// n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p / 100 * float64(n)))
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i
}

// percentile reads the nearest-rank p-th percentile from sorted samples
// (0 when there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark stands behind it (choosing-metrics §1).
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond of them
// beyond the p-th percentile.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the two middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives with its default "exclusive" method — the rule the driver judges
// spreads by. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}
