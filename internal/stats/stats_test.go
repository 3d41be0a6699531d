package stats

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"treebench/internal/sim"
)

func entry(i int, algo string, elapsed time.Duration) Entry {
	return Entry{
		Cold:            true,
		ProjectionType:  "attributes",
		Selectivity:     10 * i,
		Text:            "select p.name, pa.age from p in Providers, pa in p.clients",
		Database:        "1Mx3",
		Cluster:         "class",
		Algo:            algo,
		Elapsed:         elapsed,
		CCPagefaults:    int64(100 * i),
		RPCsNumber:      int64(10 * i),
		RPCsTotalSize:   int64(4096 * i),
		D2SCReadPages:   int64(50 * i),
		SC2CCReadPages:  int64(60 * i),
		CCMissRate:      i,
		SCMissRate:      2 * i,
		ServerCacheSize: 4 << 20,
		ClientCacheSize: 32 << 20,
		SameWorkstation: true,
	}
}

func TestRecordAndAll(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		id, err := db.Record(entry(i, "PHJ", time.Duration(i)*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("test id = %d, want %d", id, i)
		}
	}
	if db.Len() != 5 {
		t.Fatalf("Len = %d", db.Len())
	}
	all, err := db.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("All = %d entries", len(all))
	}
	e := all[2]
	if e.NumTest != 3 || e.Algo != "PHJ" || e.Cluster != "class" ||
		e.Elapsed != 3*time.Second || e.CCPagefaults != 300 ||
		e.Selectivity != 30 || !e.Cold || e.ClientCacheSize != 32<<20 || !e.SameWorkstation {
		t.Fatalf("round trip: %+v", e)
	}
	if !strings.HasPrefix(e.Text, "select p.name") {
		t.Fatalf("query text: %q", e.Text)
	}
}

func TestFromCounters(t *testing.T) {
	var e Entry
	n := sim.Counters{
		ClientFaults: 10, ClientHits: 30, RPCs: 11, RPCBytes: 2048,
		DiskReads: 5, ServerHits: 5, ServerToClient: 9,
	}
	e.FromCounters(7*time.Second, n)
	if e.Elapsed != 7*time.Second || e.CCPagefaults != 10 || e.RPCsNumber != 11 ||
		e.D2SCReadPages != 5 || e.SC2CCReadPages != 9 {
		t.Fatalf("FromCounters: %+v", e)
	}
	if e.CCMissRate != 25 || e.SCMissRate != 50 {
		t.Fatalf("miss rates: %d %d", e.CCMissRate, e.SCMissRate)
	}
}

func TestOQLOverResults(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		algo := "PHJ"
		if i%2 == 0 {
			algo = "NL"
		}
		if _, err := db.Record(entry(i, algo, time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	db.Engine.ColdRestart()
	res, err := db.OQL(`select s.ElapsedTimeMs from s in Stats where s.numtest <= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 10 {
		t.Fatalf("OQL rows = %d, want 10", res.Rows)
	}
}

func TestExportCSV(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	db.Record(entry(1, "CHJ", 90*time.Second))
	db.Record(entry(2, "NOJOIN", 125*time.Second))
	var buf bytes.Buffer
	if err := db.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "numtest,") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "CHJ") || !strings.Contains(lines[1], "90.00") {
		t.Fatalf("row 1: %q", lines[1])
	}
}

func TestLongStringsAreClipped(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	e := entry(1, "PHJ", time.Second)
	e.Text = strings.Repeat("x", 500)
	e.Database = strings.Repeat("d", 100)
	if _, err := db.Record(e); err != nil {
		t.Fatalf("long strings rejected: %v", err)
	}
	all, _ := db.All()
	if len(all[0].Text) != textLen {
		t.Fatalf("text stored as %d chars", len(all[0].Text))
	}
}
