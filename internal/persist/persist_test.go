package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"treebench/internal/codec"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/session"
	"treebench/internal/storage"
)

// testSnapshot generates and freezes a small Derby database once per test
// binary; tests fork it or re-save it, never mutate it.
func testSnapshot(t testing.TB) *derby.Snapshot {
	t.Helper()
	testSnapOnce.once.Do(func() {
		d, err := derby.Generate(derby.DefaultConfig(20, 20, derby.ClassCluster))
		if err == nil {
			testSnapOnce.snap, err = d.Freeze()
		}
		testSnapOnce.err = err
	})
	if testSnapOnce.err != nil {
		t.Fatalf("generate: %v", testSnapOnce.err)
	}
	return testSnapOnce.snap
}

var testSnapOnce struct {
	once sync.Once
	snap *derby.Snapshot
	err  error
}

func savedSnapshot(t testing.TB) (string, *derby.Snapshot) {
	t.Helper()
	snap := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.tbsp")
	if err := Save(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path, snap
}

func TestSaveDeterministic(t *testing.T) {
	path, snap := savedSnapshot(t)
	path2 := filepath.Join(t.TempDir(), "again.tbsp")
	if err := Save(path2, snap); err != nil {
		t.Fatalf("second save: %v", err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(path2)
	if !bytes.Equal(a, b) {
		t.Fatal("saving the same snapshot twice produced different bytes")
	}
}

// TestRoundTripByteIdentical is the tentpole invariant in its strongest
// form: Save(Load(Save(snap))) must equal Save(snap) byte for byte. Every
// field the format carries — catalog, registry, trees, rid maps, load
// report — would break this if it round-tripped lossily.
func TestRoundTripByteIdentical(t *testing.T) {
	path, _ := savedSnapshot(t)
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	path2 := filepath.Join(t.TempDir(), "resaved.tbsp")
	if err := Save(path2, loaded); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(path2)
	if !bytes.Equal(a, b) {
		t.Fatal("re-saving a loaded snapshot produced different bytes")
	}
}

// render runs one statement sequence on a fresh session over the snapshot
// and returns the full rendered output, cold then warm — the oqlsh and
// `oqlsh -warm` views a user would diff.
func render(t *testing.T, snap *derby.Snapshot, warm bool) string {
	t.Helper()
	stmts := []string{
		"select pa.mrn, pa.age from pa in Patients where pa.mrn < 40",
		"select count(*) from pa in Patients",
		"select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 10",
		"select sum(pa.mrn) from pa in Patients where pa.mrn < 60",
	}
	s := session.New(snap.Fork().DB)
	s.Cold = !warm
	var buf bytes.Buffer
	for _, stmt := range stmts {
		res, err := s.Execute(stmt)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		session.WriteResult(&buf, session.ToWire(res, 10), 10)
	}
	return buf.String()
}

// TestRoundTripQueryIdentity pins the user-visible half of the invariant:
// cold and warm query sequences over a loaded snapshot render exactly the
// bytes the original produces, simulated costs included.
func TestRoundTripQueryIdentity(t *testing.T) {
	path, snap := savedSnapshot(t)
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, warm := range []bool{false, true} {
		want := render(t, snap, warm)
		got := render(t, loaded, warm)
		if want != got {
			t.Errorf("warm=%v: loaded snapshot renders differently\n--- original\n%s--- loaded\n%s", warm, want, got)
		}
	}
}

// readTestTable parses the header and section table straight off the file
// bytes, independent of the package's own reader.
func readTestTable(t *testing.T, raw []byte) map[string][2]uint64 {
	t.Helper()
	if len(raw) < headerLen {
		t.Fatal("file shorter than header")
	}
	n := int(binary.BigEndian.Uint32(raw[8:12]))
	sections := make(map[string][2]uint64, n)
	for i := 0; i < n; i++ {
		b := raw[headerLen+i*tableEntryLen:]
		id := binary.BigEndian.Uint32(b[0:4])
		off := binary.BigEndian.Uint64(b[4:12])
		length := binary.BigEndian.Uint64(b[12:20])
		sections[sectionName(id)] = [2]uint64{off, length}
	}
	return sections
}

// TestCorruptionPerSection flips one byte in every section's payload and
// asserts Load reports ErrChecksum naming that section — never a panic,
// never a silent success.
func TestCorruptionPerSection(t *testing.T) {
	path, _ := savedSnapshot(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, span := range readTestTable(t, raw) {
		t.Run(name, func(t *testing.T) {
			off, length := span[0], span[1]
			if length == 0 {
				t.Skipf("%s section empty at this scale", name)
			}
			mut := append([]byte(nil), raw...)
			mut[off+length/2] ^= 0x40
			p := filepath.Join(t.TempDir(), "corrupt.tbsp")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(p)
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("corrupt %s section: got %v, want ErrChecksum", name, err)
			}
			var ce *ChecksumError
			if !errors.As(err, &ce) || ce.Section != name {
				t.Fatalf("corrupt %s section: error names %q", name, err)
			}
			if _, err := Verify(p); !errors.Is(err, ErrChecksum) {
				t.Fatalf("Verify on corrupt %s section: got %v, want ErrChecksum", name, err)
			}
		})
	}
}

func TestBadHeader(t *testing.T) {
	path, _ := savedSnapshot(t)
	raw, _ := os.ReadFile(path)

	cases := map[string]func([]byte){
		"magic":     func(b []byte) { b[0] ^= 0xFF },
		"version":   func(b []byte) { binary.BigEndian.PutUint32(b[4:8], FormatVersion+1) },
		"sections":  func(b []byte) { binary.BigEndian.PutUint32(b[8:12], maxSections+1) },
		"truncated": nil,
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			mut := append([]byte(nil), raw...)
			if mutate == nil {
				mut = mut[:headerLen/2]
			} else {
				mutate(mut)
			}
			p := filepath.Join(t.TempDir(), name+".tbsp")
			os.WriteFile(p, mut, 0o644)
			_, err := Load(p)
			if err == nil {
				t.Fatal("load accepted a mangled header")
			}
			if name == "version" && !errors.Is(err, ErrVersion) {
				t.Fatalf("got %v, want ErrVersion", err)
			}
			if name != "version" && !errors.Is(err, ErrFormat) {
				t.Fatalf("got %v, want ErrFormat", err)
			}
		})
	}
}

// TestNamedRootsRefused: the extents section still carries a named-roots
// count, always written as zero. A section that names roots, or claims
// more than it holds, is refused with ErrFormat, never a panic.
func TestNamedRootsRefused(t *testing.T) {
	st := testSnapshot(t).State().Engine
	var e codec.Enc
	encodeExtents(&e, &engine.SnapshotState{Extents: st.Extents})
	// With no relationships the section ends in the roots and
	// relationships counts, both zero.
	extents := e.B[:len(e.B)-8]
	var oneRoot, huge codec.Enc
	oneRoot.Raw(extents)
	oneRoot.U32(1)
	oneRoot.Str("archive")
	oneRoot.Rid(storage.Rid{Page: 1, Slot: 2})
	oneRoot.U32(0)
	huge.Raw(extents)
	huge.U32(^uint32(0))
	for name, b := range map[string][]byte{"one root": oneRoot.B, "count past the end": huge.B} {
		t.Run(name, func(t *testing.T) {
			if err := decodeExtents(b, &engine.SnapshotState{}); !errors.Is(err, ErrFormat) {
				t.Fatalf("decodeExtents = %v, want ErrFormat", err)
			}
		})
	}
	if err := decodeExtents(e.B, &engine.SnapshotState{}); err != nil {
		t.Fatalf("zero roots refused: %v", err)
	}
}

func TestVerifyAndInspect(t *testing.T) {
	path, snap := savedSnapshot(t)
	m, err := Verify(path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(m.Sections) != len(requiredSections) {
		t.Fatalf("manifest lists %d sections, want %d", len(m.Sections), len(requiredSections))
	}
	if m.Pages != snap.Engine.Pages() {
		t.Errorf("manifest pages = %d, snapshot has %d", m.Pages, snap.Engine.Pages())
	}
	im, err := Inspect(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if im.Providers != 20 || im.Patients != 400 || im.Clustering != "class" {
		t.Errorf("inspect provenance = %d/%d/%s", im.Providers, im.Patients, im.Clustering)
	}
	if im.Version != FormatVersion {
		t.Errorf("inspect version = %d", im.Version)
	}
}

// TestFieldListsCoverStructs checks that every field of sim.CostModel and
// sim.Counters survives the sections that carry them: each field is set to
// its own value, and the meta and derby sections must give all of them
// back. Each CostModel field must also move KeyFor, so a cost change never
// hits a stale cache entry.
func TestFieldListsCoverStructs(t *testing.T) {
	var es engine.SnapshotState
	mv := reflect.ValueOf(&es.Model).Elem()
	for i := 0; i < mv.NumField(); i++ {
		mv.Field(i).SetInt(int64(i + 1))
	}
	var e codec.Enc
	encodeMeta(&e, &es)
	var gotMeta engine.SnapshotState
	if err := decodeMeta(e.B, &gotMeta); err != nil {
		t.Fatalf("meta: %v", err)
	}
	if gotMeta.Model != es.Model {
		t.Errorf("meta section carries CostModel %+v, want %+v", gotMeta.Model, es.Model)
	}

	ds := &derby.SnapshotState{}
	cv := reflect.ValueOf(&ds.Load.Counters).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(100 + i))
	}
	e = codec.Enc{}
	encodeDerby(&e, ds)
	gotDerby, err := decodeDerby(e.B)
	if err != nil {
		t.Fatalf("derby: %v", err)
	}
	if gotDerby.Load.Counters != ds.Load.Counters {
		t.Errorf("derby section carries Counters %+v, want %+v", gotDerby.Load.Counters, ds.Load.Counters)
	}

	base := derby.DefaultConfig(20, 20, derby.ClassCluster)
	seen := map[string]string{KeyFor(base): "base"}
	for i := 0; i < mv.NumField(); i++ {
		cfg := base
		f := reflect.ValueOf(&cfg.Model).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		name := mv.Type().Field(i).Name
		k := KeyFor(cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("KeyFor ignores CostModel.%s (same key as %s)", name, prev)
		}
		seen[k] = name
	}
}

func TestKeyFor(t *testing.T) {
	base := derby.DefaultConfig(20, 20, derby.ClassCluster)
	if KeyFor(base) != KeyFor(base) {
		t.Fatal("KeyFor is not deterministic")
	}
	if len(KeyFor(base)) != 64 {
		t.Fatalf("key %q is not a sha256 hex", KeyFor(base))
	}
	variants := map[string]derby.Config{}
	for name, mutate := range map[string]func(*derby.Config){
		"providers":  func(c *derby.Config) { c.Providers++ },
		"avg":        func(c *derby.Config) { c.AvgPatients++ },
		"clustering": func(c *derby.Config) { c.Clustering = derby.RandomOrg },
		"seed":       func(c *derby.Config) { c.Seed++ },
		"machine":    func(c *derby.Config) { c.Machine.ClientCache++ },
		"model":      func(c *derby.Config) { c.Model.PageRead++ },
		"txn":        func(c *derby.Config) { c.TxnMode = 1 - c.TxnMode },
		"index":      func(c *derby.Config) { c.IndexBeforeLoad = !c.IndexBeforeLoad },
	} {
		cfg := base
		mutate(&cfg)
		variants[name] = cfg
	}
	seen := map[string]string{KeyFor(base): "base"}
	for name, cfg := range variants {
		k := KeyFor(cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("configs %s and %s collide", name, prev)
		}
		seen[k] = name
	}
}

func TestChecksumErrorMessage(t *testing.T) {
	err := &ChecksumError{Section: "registry", Want: 1, Got: 2}
	if !strings.Contains(err.Error(), "registry") {
		t.Fatalf("error %q does not name the section", err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatal("ChecksumError does not wrap ErrChecksum")
	}
}
