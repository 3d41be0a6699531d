package codec

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"treebench/internal/object"
	"treebench/internal/storage"
)

func TestRoundTrip(t *testing.T) {
	values := []object.Value{
		object.IntValue(-7), object.CharValue('f'), object.StringValue("name0001"),
		object.RefValue(storage.Rid{Page: 17, Slot: 3}), object.SetValue(storage.Rid{Page: 9, Slot: 1}),
	}
	var e Enc
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(math.MaxUint64)
	e.I64(math.MinInt64)
	e.F64(41.25)
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("héllo")
	e.Rid(storage.Rid{Page: 1 << 30, Slot: 65535})
	e.Sub(func(s *Enc) { s.Str("inner") })
	e.Raw([]byte{1, 2, 3})
	e.U32(uint32(len(values)))
	for _, v := range values {
		e.Value(v)
	}

	d := NewDec(e.B)
	if d.U8() != 0xAB || d.U16() != 0xBEEF || d.U32() != 0xDEADBEEF || d.U64() != math.MaxUint64 ||
		d.I64() != math.MinInt64 || d.F64() != 41.25 || !d.Bool() || d.Bool() ||
		d.Str() != "" || d.Str() != "héllo" || d.Rid() != (storage.Rid{Page: 1 << 30, Slot: 65535}) {
		t.Fatal("scalar round trip mismatch")
	}
	if sub := NewDec(d.Sub("inner")); sub.Str() != "inner" || sub.Finish() != nil {
		t.Fatal("sub-section round trip mismatch")
	}
	if !bytes.Equal(d.Take(3, "raw"), []byte{1, 2, 3}) {
		t.Fatal("raw bytes mismatch")
	}
	n := d.Count(1, "value")
	for i := 0; i < n; i++ {
		if got := d.Value(); got != values[i] {
			t.Fatalf("value %d = %v, want %v", i, got, values[i])
		}
	}
	if n != len(values) {
		t.Fatalf("count %d, want %d", n, len(values))
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestFailureLatches checks each rejection names what was read, and that
// every read after the first failure is a zero value.
func TestFailureLatches(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(*Dec)
		want    string
	}{
		{"short u32", []byte{0, 1}, func(d *Dec) { d.U32() }, "truncated u32 at offset 0"},
		{"bool 2", []byte{2}, func(d *Dec) { d.Bool() }, "truncated bool"},
		{"value kind", []byte{0x7F}, func(d *Dec) { d.Value() }, "truncated value kind"},
		{"string past end", []byte{0, 0, 0, 9, 'a'}, func(d *Dec) { d.Str() }, "truncated string at offset 4"},
		{"trailing", []byte{1, 2, 3}, func(d *Dec) { d.U8() }, "2 trailing bytes"},
		// 357 913 942 elements of 12 bytes wrap to 8 bytes in 32 bits: the
		// division form rejects it against 16 bytes at any word size.
		{"wrapping count", append([]byte{0x15, 0x55, 0x55, 0x56}, make([]byte, 16)...),
			func(d *Dec) { d.Count(12, "aggregate") }, "truncated aggregate count"},
		{"huge count", []byte{0xFF, 0xFF, 0xFF, 0xF0}, func(d *Dec) { d.Count(1, "row") }, "truncated row count"},
	} {
		d := NewDec(tc.payload)
		tc.read(d)
		err := d.Finish()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
		if d.U64() != 0 || d.Str() != "" || d.Count(1, "x") != 0 || d.Err() != err {
			t.Errorf("%s: reads after a failure are not zero or the failure moved", tc.name)
		}
	}
	if err := NewDec(nil).Err(); err != nil {
		t.Fatalf("fresh decoder reports %v", err)
	}
}
