package wire

import (
	"bytes"
	"testing"

	"treebench/internal/object"
	"treebench/internal/sim"
)

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader and every
// message decoder: malformed and truncated input must error (or decode
// cleanly), never panic or over-allocate, and anything that decodes must
// survive a re-encode/re-decode round trip.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(typ byte, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(TypeHello, (&Hello{Version: Version}).Encode())
	seed(TypeServerHello, (&ServerHello{Version: Version, Label: "40x400 class"}).Encode())
	seed(TypeQuery, (&Query{Stmt: "select p.name from p in Providers", MaxRows: 10}).Encode())
	seed(TypeError, (&Error{Code: CodeQuery, Msg: "no such extent"}).Encode())
	seed(TypeStats, (&Stats{Served: 3, WallHist: "[1,2):3"}).Encode())
	seed(TypeResult, (&Result{
		Plan:       "selection on Patients via index [cost-based]",
		Rows:       42,
		Counters:   sim.Counters{DiskReads: 7, RPCs: 2},
		Aggregates: []Agg{{Label: "sum(mrn)", Value: 3.5}},
		Sample:     [][]object.Value{{object.IntValue(1), object.StringValue("x")}},
	}).Encode())
	seed(TypePing, nil)
	seed(TypeServerHello, (&ServerHello{Version: Version, Label: "40x400 class writable"}).Encode())
	f.Add([]byte{})
	f.Add([]byte{TypeQuery, 0xFF, 0xFF, 0xFF, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, raw []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		switch typ {
		case TypeHello:
			if m, err := DecodeHello(payload); err == nil {
				reDecode(t, m.Encode(), payload)
			}
		case TypeServerHello:
			if m, err := DecodeServerHello(payload); err == nil {
				reDecode(t, m.Encode(), payload)
			}
		case TypeQuery:
			if m, err := DecodeQuery(payload); err == nil {
				reDecode(t, m.Encode(), payload)
			}
		case TypeResult:
			if m, err := DecodeResult(payload); err == nil {
				reDecode(t, m.Encode(), payload)
			}
		case TypeError:
			if m, err := DecodeError(payload); err == nil {
				reDecode(t, m.Encode(), payload)
			}
		case TypeStats:
			// A Stats payload may order its fields freely and carry ones
			// this build does not know, so only the decoded value is
			// canonical.
			if m, err := DecodeStats(payload); err == nil {
				if again, err := DecodeStats(m.Encode()); err != nil || *again != *m {
					t.Fatalf("stats re-decode: %+v, %v; want %+v", again, err, m)
				}
			}
		}
	})
}

// reDecode asserts a decoded message re-encodes to the exact accepted
// payload: the codec has one canonical form, so decode∘encode is identity.
func reDecode(t *testing.T, again, payload []byte) {
	t.Helper()
	if !bytes.Equal(again, payload) {
		t.Fatalf("re-encode differs from accepted payload:\n got %x\nwant %x", again, payload)
	}
}
