package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"treebench/internal/codec"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		typ     byte
		payload []byte
	}{
		{TypePing, nil},
		{TypeQuery, []byte{}},
		{TypeResult, []byte("hello")},
		{TypeStats, bytes.Repeat([]byte{0xAB}, 1<<16)},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.typ, tc.payload); err != nil {
			t.Fatalf("write type %d: %v", tc.typ, err)
		}
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read type %d: %v", tc.typ, err)
		}
		if typ != tc.typ || !bytes.Equal(payload, tc.payload) {
			t.Fatalf("frame round trip: got type %d len %d, want type %d len %d",
				typ, len(payload), tc.typ, len(tc.payload))
		}
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A hostile length prefix must be rejected before allocation.
	raw := []byte{TypeQuery, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeResult, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeQuery, []byte("select 1")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func sampleCounters() sim.Counters {
	return sim.Counters{
		DiskReads: 1, DiskWrites: 2, RPCs: 3, RPCBytes: 4,
		ServerHits: 5, ServerToClient: 6, ClientHits: 7, ClientFaults: 8,
		LogPages: 9, Locks: 10, ScanNexts: 11, HandleGets: 12,
		HandleUnrefs: 13, AttrGets: 14, Compares: 15, HashInserts: 16,
		HashProbes: 17, ResultAppends: 18, SortSteps: 19,
		SwapReads: 20, SwapWrites: 21,
	}
}

// TestCountersCoverEveryField checks that every field of sim.Counters
// crosses the wire: a field the frame codec skipped would silently decode
// as zero. It also keeps sampleCounters, which the round-trip tests lean
// on, setting every field.
func TestCountersCoverEveryField(t *testing.T) {
	var c sim.Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(1000 + i))
	}
	var e codec.Enc
	encodeCounters(&e, &c)
	if want := 8 * cv.NumField(); len(e.B) != want {
		t.Fatalf("counters encode to %d bytes, want %d", len(e.B), want)
	}
	var got sim.Counters
	d := codec.NewDec(e.B)
	decodeCounters(d, &got)
	if err := d.Finish(); err != nil || got != c {
		t.Fatalf("counters round trip: %+v, %v; want %+v", got, err, c)
	}

	sv := reflect.ValueOf(sampleCounters())
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Int() == 0 {
			t.Errorf("sampleCounters leaves %s zero", sv.Type().Field(i).Name)
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	hello := &Hello{Version: Version}
	if got, err := DecodeHello(hello.Encode()); err != nil || *got != *hello {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}

	sh := &ServerHello{Version: Version, Label: "200x10000 class"}
	if got, err := DecodeServerHello(sh.Encode()); err != nil || *got != *sh {
		t.Fatalf("server hello round trip: %+v, %v", got, err)
	}

	q := &Query{Stmt: "select p.name from p in Providers;", Warm: true, Strategy: StrategyHeuristic, MaxRows: 25}
	if got, err := DecodeQuery(q.Encode()); err != nil || *got != *q {
		t.Fatalf("query round trip: %+v, %v", got, err)
	}

	e := &Error{Code: CodeBusy, Msg: "queue full"}
	if got, err := DecodeError(e.Encode()); err != nil || *got != *e {
		t.Fatalf("error round trip: %+v, %v", got, err)
	}

	st := &Stats{
		Served: 100, QueryErrors: 3, Rejected: 7, TimedOut: 1,
		ActiveSessions: 8, QueueDepth: 2, Sessions: 8, BusySessions: 5,
		SnapshotPages: 4096, SnapshotBytes: 16 << 20,
		WallP50us: 1200, WallP95us: 9000, WallP99us: 20000,
		SimP50ms: 3100, SimP95ms: 3300, SimP99ms: 3400,
		WallHist: "[1,10):5 [10,20):5", SimHist: "[3100,3400):10",
		SnapshotSource: "cache (/tmp/cache/ab12.tbsp)",
	}
	if got, err := DecodeStats(st.Encode()); err != nil || *got != *st {
		t.Fatalf("stats round trip: %+v, %v", got, err)
	}

	wst := &Stats{
		HeadVersion: 12, BaseVersion: 8, Versions: 5,
		Commits: 12, Compactions: 2,
		WalRecords: 4, WalBytes: 1 << 20, WalSyncs: 3, WalTail: 1<<20 + 16,
	}
	if got, err := DecodeStats(wst.Encode()); err != nil || *got != *wst {
		t.Fatalf("write-path stats round trip: %+v, %v", got, err)
	}

	pst := &Stats{
		PoolHits: 9000, PoolMisses: 1000, PoolEvictions: 250,
		PoolReadaheadIssued: 512, PoolReadaheadUsed: 480, PoolReadaheadWasted: 12,
		PoolAdopted: 8384, PoolDropped: 8200,
		PoolResidentPages: 4096, PoolCapacityPages: 65536,
	}
	if got, err := DecodeStats(pst.Encode()); err != nil || *got != *pst {
		t.Fatalf("buffer-pool stats round trip: %+v, %v", got, err)
	}
	pv := reflect.ValueOf(*pst)
	for i := 0; i < pv.NumField(); i++ {
		if name := pv.Type().Field(i).Name; strings.HasPrefix(name, "Pool") && pv.Field(i).Int() == 0 {
			t.Errorf("the buffer-pool sample leaves %s zero", name)
		}
	}

	cr := &CommitResult{
		Version: 7, Wave: 7,
		Reassigned: 120, Scalars: 80, Evolved: true, Upgraded: 40,
		Relocated: 13, DeltaPages: 96, WalOff: 40960, WallUs: 1800,
	}
	if got, err := DecodeCommitResult(cr.Encode()); err != nil || *got != *cr {
		t.Fatalf("commit result round trip: %+v, %v", got, err)
	}
	if _, err := DecodeCommitResult(cr.Encode()[:10]); err == nil {
		t.Fatal("truncated commit result accepted")
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{Version: Version, Label: "200x10000 class"}
	if got, err := DecodeServerHello(sh.Encode()); err != nil || *got != *sh {
		t.Fatalf("server hello round trip: %+v, %v", got, err)
	}
	if _, err := DecodeServerHello(sh.Encode()[:6]); err == nil {
		t.Fatal("truncated server hello accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &Result{
		Plan:     "tree join Providers over Patients (k1=100, k2=10) via CHJ [cost-based]\n  est CHJ 1.00s",
		Rows:     991,
		Elapsed:  3140 * time.Millisecond,
		Counters: sampleCounters(),
		Aggregates: []Agg{
			{Label: "sum(mrn)", Value: 12345},
			{Label: "avg(age)", Value: 41.25},
		},
		Sample: [][]object.Value{
			{object.StringValue("name0001"), object.IntValue(34)},
			{object.CharValue('f'), object.RefValue(storage.Rid{Page: 17, Slot: 3})},
			{object.SetValue(storage.Rid{Page: 9, Slot: 1}), object.IntValue(-1)},
		},
	}
	got, err := DecodeResult(res.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("result round trip mismatch:\n got %+v\nwant %+v", got, res)
	}
}

func TestResultRoundTripEmpty(t *testing.T) {
	res := &Result{Plan: "selection on Providers via scan [cost-based]"}
	got, err := DecodeResult(res.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("empty result mismatch: %+v", got)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	res := &Result{Plan: "p", Rows: 1, Sample: [][]object.Value{{object.IntValue(7)}}}
	full := res.Encode()
	// Every strict prefix must fail, not panic or succeed.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeResult(full[:cut]); err == nil {
			t.Fatalf("truncated result at %d accepted", cut)
		}
	}
	// Trailing garbage must fail too.
	if _, err := DecodeResult(append(append([]byte{}, full...), 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A bogus value kind must fail.
	bogus := append([]byte{}, full...)
	bogus[len(bogus)-9] = 0x7F // the kind byte of the only sample value
	if _, err := DecodeResult(bogus); err == nil {
		t.Fatal("bogus value kind accepted")
	}
	if _, err := DecodeQuery((&Query{Stmt: "s", Strategy: 9}).Encode()); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// An aggregate count larger than the remaining payload could support
	// must be rejected before allocating — at every word size. 357 913 942
	// aggregates of at least 12 bytes each need 4 294 967 304 bytes, which
	// wraps to 8 in a 32-bit int: a product check would let it through
	// against 16 trailing bytes and make() would panic.
	for _, tc := range []struct {
		count    uint32
		trailing int
	}{
		{0xFFFFFFF0, 0},
		{357913942, 16},
	} {
		var e codec.Enc
		e.Str("plan")
		e.I64(1)
		e.I64(0)
		encodeCounters(&e, &sim.Counters{})
		e.U32(tc.count) // aggregates "count"
		e.Raw(make([]byte, tc.trailing))
		_, err := DecodeResult(e.B)
		if err == nil || !strings.Contains(err.Error(), "count") {
			t.Fatalf("count %d before %d bytes not rejected: %v", tc.count, tc.trailing, err)
		}
	}
}

// statsPayload hand-builds a v9 Stats payload from (name, kind, value)
// triples, the way a newer or older peer might send one.
func statsPayload(fields ...any) []byte {
	var e codec.Enc
	e.U32(uint32(len(fields) / 3))
	for i := 0; i < len(fields); i += 3 {
		e.Str(fields[i].(string))
		e.U8(fields[i+1].(byte))
		switch v := fields[i+2].(type) {
		case int64:
			e.I64(v)
		case string:
			e.Str(v)
		}
	}
	return e.B
}

func TestStatsSelfDescribing(t *testing.T) {
	// A field this build does not know is skipped, whatever its kind and
	// wherever it sits; the known ones around it still land.
	got, err := DecodeStats(statsPayload(
		"Served", kindInt64, int64(5),
		"FutureCounter", kindInt64, int64(99),
		"FutureLabel", kindString, "x",
		"IndexBackend", kindString, "lsm",
	))
	if err != nil {
		t.Fatalf("payload with unknown fields rejected: %v", err)
	}
	if *got != (Stats{Served: 5, IndexBackend: "lsm"}) {
		t.Fatalf("decoded %+v", got)
	}
	// An empty payload field list is an all-zero Stats.
	if got, err := DecodeStats(statsPayload()); err != nil || *got != (Stats{}) {
		t.Fatalf("empty stats: %+v, %v", got, err)
	}
	for name, payload := range map[string][]byte{
		"kind mismatch": statsPayload("Served", kindString, "5"),
		"repeated":      statsPayload("Served", kindInt64, int64(1), "Served", kindInt64, int64(2)),
		"unknown kind":  statsPayload("FutureCounter", byte(7), int64(0)),
		"truncated":     statsPayload("Served", kindInt64, int64(5))[:20],
		"trailing":      append(statsPayload("Served", kindInt64, int64(5)), 0),
	} {
		if _, err := DecodeStats(payload); err == nil || !strings.HasPrefix(err.Error(), "wire: ") {
			t.Errorf("%s: got %v, want a wire error", name, err)
		}
	}
}
