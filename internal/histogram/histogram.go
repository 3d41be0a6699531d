// Package histogram implements equi-depth histograms over integer keys —
// the statistics the paper set out to identify ("Our first task was to
// find out what statistics the system should maintain and how to
// incorporate them into a cost model", §2). The planner uses them for
// selectivity estimation where a uniform min/max assumption would be wrong.
package histogram

import (
	"fmt"
	"slices"
	"strings"
)

// bucket summarizes the keys in [lo, hi). Buckets are anchored at actual
// key values (hi is one past the bucket's largest key), so gaps between
// buckets estimate to zero instead of being smeared over.
type bucket struct {
	lo, hi int64
	count  int64
}

// Histogram is an equi-depth histogram: bucket boundaries chosen so each
// bucket holds (about) the same number of keys, never splitting a run of
// duplicates. Within a bucket, keys are assumed uniform.
type Histogram struct {
	buckets []bucket
	total   int64
}

// Build constructs a histogram with up to buckets buckets from keys. The
// slice is sorted in place unless it already is: an index scan delivers
// keys ascending, and that is the caller every commit pays for. An empty
// input yields a well-defined empty histogram — zero buckets, zero total,
// zero Min/Max — not nil, so callers may chain accessors without a guard.
func Build(keys []int64, buckets int) *Histogram {
	if len(keys) == 0 {
		return &Histogram{}
	}
	if buckets < 1 {
		buckets = 1
	}
	if buckets > len(keys) {
		buckets = len(keys)
	}
	if !slices.IsSorted(keys) {
		slices.Sort(keys)
	}
	h := &Histogram{total: int64(len(keys))}
	per := len(keys) / buckets
	if per < 1 {
		per = 1
	}
	start := 0
	for start < len(keys) {
		end := start + per
		if end >= len(keys) {
			end = len(keys)
		} else {
			// Never split a run of duplicates across buckets.
			for end < len(keys) && keys[end] == keys[end-1] {
				end++
			}
		}
		h.buckets = append(h.buckets, bucket{
			lo:    keys[start],
			hi:    keys[end-1] + 1,
			count: int64(end - start),
		})
		start = end
	}
	return h
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int {
	if h == nil {
		return 0
	}
	return len(h.buckets)
}

// Total returns the number of keys summarized.
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Min and Max return the key range covered; zero when the histogram is
// nil or summarizes no keys.
func (h *Histogram) Min() int64 {
	if h == nil || len(h.buckets) == 0 {
		return 0
	}
	return h.buckets[0].lo
}

func (h *Histogram) Max() int64 {
	if h == nil || len(h.buckets) == 0 {
		return 0
	}
	return h.buckets[len(h.buckets)-1].hi - 1
}

// EstimateRange estimates how many keys fall in [lo, hi), interpolating
// uniformly within partially covered buckets.
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if h == nil || hi <= lo {
		return 0
	}
	var est float64
	for _, b := range h.buckets {
		l, r := maxi(lo, b.lo), mini(hi, b.hi)
		if r <= l {
			continue
		}
		est += float64(b.count) * float64(r-l) / float64(b.hi-b.lo)
	}
	return est
}

// Selectivity estimates the fraction of keys in [lo, hi).
func (h *Histogram) Selectivity(lo, hi int64) float64 {
	if h == nil || h.total == 0 {
		return 0
	}
	s := h.EstimateRange(lo, hi) / float64(h.total)
	if s > 1 {
		return 1
	}
	return s
}

// String renders the buckets for diagnostics; empty for a nil or empty
// histogram.
func (h *Histogram) String() string {
	if h == nil {
		return ""
	}
	var sb strings.Builder
	for i, b := range h.buckets {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%d,%d):%d", b.lo, b.hi, b.count)
	}
	return sb.String()
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
