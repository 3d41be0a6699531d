package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treebench/internal/backend"
	"treebench/internal/codec"
	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/storage"
)

// lsmSnapshot builds a snapshot whose indexes run on the LSM backend with
// real structure behind them: enough update waves to flush memtables into
// SSTables, so the backends section carries table descriptors, fences and
// bloom filters — not just an empty memtable.
func lsmSnapshot(t *testing.T) *derby.Snapshot {
	t.Helper()
	cfg := derby.DefaultConfig(20, 20, derby.ClassCluster)
	cfg.IndexBackend = "lsm"
	d, err := derby.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	spec := derby.DefaultWaveSpec()
	for wave := uint64(0); wave < 48; wave++ {
		if _, err := derby.ApplyWave(d, wave, spec); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
	}
	snap, err := d.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	return snap
}

// TestLSMSnapshotRoundTrip saves an LSM-backed snapshot (SSTables, bloom
// filters, tombstones and all), loads it back, and requires the loaded
// copy to render every query byte-identically — and to still be an LSM.
func TestLSMSnapshotRoundTrip(t *testing.T) {
	snap := lsmSnapshot(t)
	if got := snap.Engine.IndexBackend(); got != "lsm" {
		t.Fatalf("frozen snapshot backend = %q, want lsm", got)
	}
	path := filepath.Join(t.TempDir(), "lsm.tbsp")
	if err := Save(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	m, err := Inspect(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if m.Backend != "lsm" {
		t.Fatalf("manifest backend = %q, want lsm", m.Backend)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got := loaded.Engine.IndexBackend(); got != "lsm" {
		t.Fatalf("loaded snapshot backend = %q, want lsm", got)
	}
	for _, warm := range []bool{false, true} {
		want := render(t, snap, warm)
		got := render(t, loaded, warm)
		if want != got {
			t.Errorf("warm=%v: loaded LSM snapshot renders differently\n--- original\n%s--- loaded\n%s", warm, want, got)
		}
	}
}

// TestLSMBackendsSectionCorruption flips a byte inside the backends
// section of a saved LSM snapshot and requires Load to fail with the
// typed ErrChecksum naming the section — a damaged bloom filter or table
// descriptor must never load as a quietly wrong index.
func TestLSMBackendsSectionCorruption(t *testing.T) {
	snap := lsmSnapshot(t)
	path := filepath.Join(t.TempDir(), "lsm.tbsp")
	if err := Save(path, snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	sec, ok := readTestTable(t, raw)["backends"]
	if !ok {
		t.Fatal("saved LSM snapshot has no backends section")
	}
	if sec[1] == 0 {
		t.Fatal("backends section is empty for an LSM snapshot")
	}
	raw[sec[0]+sec[1]/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("loading a corrupted backends section succeeded")
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("error is not ErrChecksum: %v", err)
	}
	if !strings.Contains(err.Error(), "backends") {
		t.Fatalf("error does not name the backends section: %v", err)
	}
}

// btreeBackends writes the backends section of a B+-tree catalog as
// encodeBackends does, except that every entry carries the given kind and
// metadata page: what a build with the removed "disk" kind wrote.
func btreeBackends(st *engine.SnapshotState, kind string, meta storage.PageID) []byte {
	var e codec.Enc
	e.Str(kind)
	n := 0
	for _, ex := range st.Extents {
		n += len(ex.Indexes)
	}
	e.U32(uint32(n))
	for _, ex := range st.Extents {
		for _, ix := range ex.Indexes {
			e.Str(kind)
			encodeTree(&e, ix.Backend.Tree)
			e.U32(uint32(meta))
			e.Bool(false)
		}
	}
	return e.B
}

// TestRemovedDiskBackendRefused: a snapshot or a WAL commit whose
// backends section names the removed "disk" kind, or carries a metadata
// page, fails to load with an error that names what it refused — the
// kind, with the valid ones, or the page — and never panics.
func TestRemovedDiskBackendRefused(t *testing.T) {
	snap := testSnapshot(t)
	st := snap.State().Engine
	var want codec.Enc
	encodeBackends(&want, st)
	if got := btreeBackends(st, backend.KindBTree, storage.InvalidPage); !bytes.Equal(got, want.B) {
		t.Fatal("the fixture writer does not reproduce encodeBackends for a B+-tree catalog")
	}
	cases := []struct {
		name, kind string
		meta       storage.PageID
		says       []string
	}{
		{"disk kind", "disk", storage.InvalidPage, []string{`"disk"`, "btree, lsm"}},
		{"metadata page", backend.KindBTree, 7, []string{"metadata page 7"}},
		{"disk with its page", "disk", 7, []string{"metadata page 7"}},
	}

	path, _ := savedSnapshot(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	span := readTestTable(t, raw)["backends"]
	if span[0]+span[1] != uint64(len(raw)) {
		t.Fatal("the backends section is not the file's last")
	}
	entry := -1 // the backends section's table entry
	for i := 0; i < int(binary.BigEndian.Uint32(raw[8:12])); i++ {
		if binary.BigEndian.Uint32(raw[headerLen+i*tableEntryLen:]) == SectionBackends {
			entry = headerLen + i*tableEntryLen
		}
	}

	// One version past the snapshot: its commit record ends in the
	// backends section, behind the section's length.
	d := snap.ForkMutable()
	if _, err := derby.ApplyWave(d, 1, derby.DefaultWaveSpec()); err != nil {
		t.Fatal(err)
	}
	es, delta, err := d.DB.Publish()
	if err != nil {
		t.Fatal(err)
	}
	next := snap.WithEngine(es)
	payload := EncodeCommit(1, 1, delta, next.State())
	var nextBackends codec.Enc
	encodeBackends(&nextBackends, next.State().Engine)
	head := payload[:len(payload)-4-len(nextBackends.B)]

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s: loaded", what)
				}
				for _, s := range c.says {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("%s: error %q does not say %s", what, err, s)
					}
				}
			}

			body := btreeBackends(st, c.kind, c.meta)
			file := append(append([]byte(nil), raw[:span[0]]...), body...)
			binary.BigEndian.PutUint64(file[entry+12:], uint64(len(body)))
			binary.BigEndian.PutUint32(file[entry+20:], crc32.Checksum(body, crcTable))
			p := filepath.Join(t.TempDir(), "removed.tbsp")
			if err := os.WriteFile(p, file, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(p)
			check("snapshot", err)

			body = btreeBackends(next.State().Engine, c.kind, c.meta)
			var rec codec.Enc
			rec.Raw(head)
			rec.U32(uint32(len(body)))
			rec.Raw(body)
			r, err := DecodeCommit(rec.B)
			if err == nil {
				_, err = r.Apply(snap, 0)
			}
			check("commit", err)
		})
	}
}
