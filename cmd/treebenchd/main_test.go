package main

import "testing"

// TestParseShard: -shard is exactly i/N with 0 <= i < N. fmt.Sscanf used to
// ignore trailing input, so 1/3/5 and 1/3x started shard 1/3.
func TestParseShard(t *testing.T) {
	for _, c := range []struct {
		in       string
		idx, cnt int
		ok       bool
	}{
		{"0/1", 0, 1, true},
		{"2/3", 2, 3, true},
		{"1/3/5", 0, 0, false},
		{"1/3x", 0, 0, false},
		{"1/ 3", 0, 0, false},
		{" 1/3", 0, 0, false},
		{"3/3", 0, 0, false},
		{"-1/3", 0, 0, false},
		{"1/0", 0, 0, false},
		{"", 0, 0, false},
	} {
		idx, cnt, err := parseShard(c.in)
		if (err == nil) != c.ok || idx != c.idx || cnt != c.cnt {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", c.in, idx, cnt, err, c.idx, c.cnt, c.ok)
		}
	}
}
