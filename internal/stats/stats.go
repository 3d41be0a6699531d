// Package stats implements §3.3's advice — "why not use a database?" — by
// storing benchmark results in a database built on this very engine, with
// the Figure 3 schema (classes Stat, Query and System; the associations
// flattened to fit the engine's attribute kinds). Results can be queried
// back through the OQL subset and exported as CSV for plotting, the role
// YAT and Gnuplot played for the authors.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/oql"
	"treebench/internal/sim"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

// Entry is one experiment result, mirroring Figure 3's Stat object and the
// Query/System objects it references.
type Entry struct {
	NumTest int
	// Query attributes.
	Cold           bool
	ProjectionType string
	Selectivity    int
	Text           string
	// Stat attributes.
	Database       string
	Cluster        string
	Algo           string
	CCPagefaults   int64
	Elapsed        time.Duration
	RPCsNumber     int64
	RPCsTotalSize  int64 // bytes
	D2SCReadPages  int64
	SC2CCReadPages int64
	CCMissRate     int // percent
	SCMissRate     int // percent
	// System attributes.
	ServerCacheSize int64
	ClientCacheSize int64
	SameWorkstation bool
}

// FromCounters fills the measured fields of an entry from a meter snapshot.
func (e *Entry) FromCounters(elapsed time.Duration, n sim.Counters) {
	e.Elapsed = elapsed
	e.CCPagefaults = n.ClientFaults
	e.RPCsNumber = n.RPCs
	e.RPCsTotalSize = n.RPCBytes
	e.D2SCReadPages = n.DiskReads
	e.SC2CCReadPages = n.ServerToClient
	e.CCMissRate = int(n.ClientMissRate())
	e.SCMissRate = int(n.ServerMissRate())
}

// DB is the results database. Its methods are safe for concurrent use:
// the underlying engine is single-threaded, so every operation serializes
// on one mutex (experiments under the parallel scheduler record from many
// goroutines). Callers reaching into Engine directly must do their own
// locking.
type DB struct {
	Engine *engine.Database

	mu      sync.Mutex
	stats   *engine.Extent
	queries *engine.Extent
	systems *engine.Extent
	nextID  int
}

const textLen = 128

func statClass() *object.Class {
	return object.NewClass("Stat", []object.Attr{
		{Name: "numtest", Kind: object.KindInt},
		{Name: "query", Kind: object.KindRef},
		{Name: "database", Kind: object.KindString, StrLen: 32},
		{Name: "cluster", Kind: object.KindString, StrLen: 16},
		{Name: "algo", Kind: object.KindString, StrLen: 16},
		{Name: "system", Kind: object.KindRef},
		{Name: "CCPagefaults", Kind: object.KindInt},
		{Name: "ElapsedTimeMs", Kind: object.KindInt},
		{Name: "RPCsnumber", Kind: object.KindInt},
		{Name: "RPCstotalsizeKB", Kind: object.KindInt},
		{Name: "D2SCreadpages", Kind: object.KindInt},
		{Name: "SC2CCreadpages", Kind: object.KindInt},
		{Name: "CCMissrate", Kind: object.KindInt},
		{Name: "SCMissrate", Kind: object.KindInt},
	})
}

func queryClass() *object.Class {
	return object.NewClass("Query", []object.Attr{
		{Name: "cold", Kind: object.KindChar},
		{Name: "projectiontype", Kind: object.KindString, StrLen: 16},
		{Name: "selectivity", Kind: object.KindInt},
		{Name: "text", Kind: object.KindString, StrLen: textLen},
	})
}

func systemClass() *object.Class {
	return object.NewClass("System", []object.Attr{
		{Name: "servercachesize", Kind: object.KindInt},
		{Name: "clientcachesize", Kind: object.KindInt},
		{Name: "sameworkstation", Kind: object.KindChar},
	})
}

// Open creates an empty results database on a fresh in-memory engine.
func Open() (*DB, error) {
	db := engine.New(sim.DefaultMachine(), sim.DefaultCostModel(), txn.NoTransaction)
	s := &DB{Engine: db}
	var err error
	if s.stats, err = db.CreateExtent("Stats", statClass(), "Stats"); err != nil {
		return nil, err
	}
	if s.queries, err = db.CreateExtent("Queries", queryClass(), "Queries"); err != nil {
		return nil, err
	}
	if s.systems, err = db.CreateExtent("Systems", systemClass(), "Systems"); err != nil {
		return nil, err
	}
	// Figure 3's numbers are queried by test id and selectivity.
	if _, _, err := db.CreateIndex(s.stats, "numtest", true); err != nil {
		return nil, err
	}
	if _, _, err := db.CreateIndex(s.stats, "ElapsedTimeMs", false); err != nil {
		return nil, err
	}
	return s, nil
}

func boolChar(b bool) object.Value {
	if b {
		return object.CharValue('Y')
	}
	return object.CharValue('N')
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// Record stores one experiment result, assigning it the next test number,
// which is returned.
func (s *DB) Record(e Entry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	qrid, err := s.Engine.Insert(nil, s.queries, []object.Value{
		boolChar(e.Cold),
		object.StringValue(clip(e.ProjectionType, 16)),
		object.IntValue(int64(e.Selectivity)),
		object.StringValue(clip(e.Text, textLen)),
	})
	if err != nil {
		return 0, err
	}
	srid, err := s.Engine.Insert(nil, s.systems, []object.Value{
		object.IntValue(e.ServerCacheSize),
		object.IntValue(e.ClientCacheSize),
		boolChar(e.SameWorkstation),
	})
	if err != nil {
		return 0, err
	}
	_, err = s.Engine.Insert(nil, s.stats, []object.Value{
		object.IntValue(int64(id)),
		object.RefValue(qrid),
		object.StringValue(clip(e.Database, 32)),
		object.StringValue(clip(e.Cluster, 16)),
		object.StringValue(clip(e.Algo, 16)),
		object.RefValue(srid),
		object.IntValue(e.CCPagefaults),
		object.IntValue(e.Elapsed.Milliseconds()),
		object.IntValue(e.RPCsNumber),
		object.IntValue(e.RPCsTotalSize / 1024),
		object.IntValue(e.D2SCReadPages),
		object.IntValue(e.SC2CCReadPages),
		object.IntValue(int64(e.CCMissRate)),
		object.IntValue(int64(e.SCMissRate)),
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Len returns the number of recorded results.
func (s *DB) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Count
}

// All returns every recorded entry, ordered by test number.
func (s *DB) All() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allLocked()
}

func (s *DB) allLocked() ([]Entry, error) {
	var out []Entry
	cls := s.stats.Class
	err := s.stats.File.Scan(s.Engine.Client, func(rid storage.Rid, rec []byte) (bool, error) {
		e, err := s.decode(cls, rec)
		if err != nil {
			return false, err
		}
		out = append(out, e)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NumTest < out[j].NumTest })
	return out, nil
}

func (s *DB) decode(cls *object.Class, rec []byte) (Entry, error) {
	var e Entry
	get := func(name string) (object.Value, error) {
		return object.DecodeAttr(cls, rec, cls.AttrIndex(name))
	}
	for _, step := range []struct {
		attr string
		set  func(object.Value)
	}{
		{"numtest", func(v object.Value) { e.NumTest = int(v.Int) }},
		{"database", func(v object.Value) { e.Database = v.Str }},
		{"cluster", func(v object.Value) { e.Cluster = v.Str }},
		{"algo", func(v object.Value) { e.Algo = v.Str }},
		{"CCPagefaults", func(v object.Value) { e.CCPagefaults = v.Int }},
		{"ElapsedTimeMs", func(v object.Value) { e.Elapsed = time.Duration(v.Int) * time.Millisecond }},
		{"RPCsnumber", func(v object.Value) { e.RPCsNumber = v.Int }},
		{"RPCstotalsizeKB", func(v object.Value) { e.RPCsTotalSize = v.Int * 1024 }},
		{"D2SCreadpages", func(v object.Value) { e.D2SCReadPages = v.Int }},
		{"SC2CCreadpages", func(v object.Value) { e.SC2CCReadPages = v.Int }},
		{"CCMissrate", func(v object.Value) { e.CCMissRate = int(v.Int) }},
		{"SCMissrate", func(v object.Value) { e.SCMissRate = int(v.Int) }},
	} {
		v, err := get(step.attr)
		if err != nil {
			return e, err
		}
		step.set(v)
	}
	// Follow the query reference for the Figure 3 Query attributes.
	qv, err := get("query")
	if err != nil {
		return e, err
	}
	if !qv.Ref.IsNil() {
		qrec, err := storage.Get(s.Engine.Client, qv.Ref)
		if err != nil {
			return e, err
		}
		qcls := s.queries.Class
		if v, err := object.DecodeAttr(qcls, qrec, qcls.AttrIndex("cold")); err == nil {
			e.Cold = byte(v.Int) == 'Y'
		}
		if v, err := object.DecodeAttr(qcls, qrec, qcls.AttrIndex("projectiontype")); err == nil {
			e.ProjectionType = v.Str
		}
		if v, err := object.DecodeAttr(qcls, qrec, qcls.AttrIndex("selectivity")); err == nil {
			e.Selectivity = int(v.Int)
		}
		if v, err := object.DecodeAttr(qcls, qrec, qcls.AttrIndex("text")); err == nil {
			e.Text = v.Str
		}
	}
	sv, err := get("system")
	if err != nil {
		return e, err
	}
	if !sv.Ref.IsNil() {
		srec, err := storage.Get(s.Engine.Client, sv.Ref)
		if err != nil {
			return e, err
		}
		scls := s.systems.Class
		if v, err := object.DecodeAttr(scls, srec, scls.AttrIndex("servercachesize")); err == nil {
			e.ServerCacheSize = v.Int
		}
		if v, err := object.DecodeAttr(scls, srec, scls.AttrIndex("clientcachesize")); err == nil {
			e.ClientCacheSize = v.Int
		}
		if v, err := object.DecodeAttr(scls, srec, scls.AttrIndex("sameworkstation")); err == nil {
			e.SameWorkstation = byte(v.Int) == 'Y'
		}
	}
	return e, nil
}

// OQL runs a query against the results database — §3.3's "a query language
// can be used to extract the information you are looking for".
func (s *DB) OQL(src string) (*oql.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl := &oql.Planner{DB: s.Engine, Strategy: oql.CostBased}
	return pl.Query(src)
}

// ExportCSV writes all entries as CSV — the input format for "data
// analysis softwares" and Gnuplot.
func (s *DB) ExportCSV(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.allLocked()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{
		"numtest", "database", "cluster", "algo", "selectivity", "cold",
		"elapsed_s", "cc_pagefaults", "rpcs", "rpc_kb", "d2sc_pages",
		"sc2cc_pages", "cc_miss_pct", "sc_miss_pct", "query",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range entries {
		cold := "N"
		if e.Cold {
			cold = "Y"
		}
		row := []string{
			strconv.Itoa(e.NumTest), e.Database, e.Cluster, e.Algo,
			strconv.Itoa(e.Selectivity), cold,
			fmt.Sprintf("%.2f", e.Elapsed.Seconds()),
			strconv.FormatInt(e.CCPagefaults, 10),
			strconv.FormatInt(e.RPCsNumber, 10),
			strconv.FormatInt(e.RPCsTotalSize/1024, 10),
			strconv.FormatInt(e.D2SCReadPages, 10),
			strconv.FormatInt(e.SC2CCReadPages, 10),
			strconv.Itoa(e.CCMissRate), strconv.Itoa(e.SCMissRate),
			e.Text,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
