package derby

import (
	"fmt"

	"treebench/internal/engine"
	"treebench/internal/object"
	"treebench/internal/txn"
)

// Update waves: the deterministic unit of mutation behind the write
// path's `-mix` workload axis. One wave reassigns patients to new
// providers through the ODMG relationship (both sides maintained, the
// §4.4 retire-a-doctor update done correctly), churns the unclustered
// num index with scalar updates, and — every GrowEvery-th wave — evolves
// the Patient class and re-encodes a batch of objects at the new schema
// epoch, forcing the §3.2 relocation storm the paper's loading analysis
// is about, now under live readers.
//
// Wave w over a given parent version is a pure function of (spec, w):
// the PRNG is seeded from spec.Seed and w, never from who executes it.
// The chain store serializes waves in wave order, so the head state
// after N commits is byte-identical no matter how many writers raced to
// produce them — the repo's determinism invariant extended to writes.

// WaveSpec configures the update waves.
type WaveSpec struct {
	// Reassign is the number of patient→provider reassignments per wave,
	// each a relationship-maintaining SetParent (collection remove + ref
	// flip + collection add).
	Reassign int
	// Scalar is the number of patient.num overwrites per wave; num is
	// unclustered-indexed, so each update is an index delete + insert.
	Scalar int
	// GrowEvery makes every GrowEvery-th wave (wave % GrowEvery == 0,
	// wave ≥ 1) a schema-growth wave: the Patient class gains an integer
	// attribute and Upgrades objects are re-encoded at the new epoch.
	// Grown records relocate behind forwarding stubs — the relocation
	// storm. 0 disables growth waves.
	GrowEvery int
	// Upgrades is the number of patients upgraded in a growth wave.
	Upgrades int
	// Seed drives the per-wave PRNG.
	Seed int32
}

// DefaultWaveSpec returns the update-workload knobs treebenchd and the
// tooling default to.
func DefaultWaveSpec() WaveSpec {
	return WaveSpec{Reassign: 24, Scalar: 24, GrowEvery: 4, Upgrades: 48, Seed: 1997}
}

// WaveReport says what one wave physically did.
type WaveReport struct {
	Wave       uint64
	Reassigned int  // SetParent calls that moved a patient
	Scalars    int  // num overwrites
	Evolved    bool // this was a schema-growth wave
	Upgraded   int  // objects re-encoded at the new epoch
	Relocated  int  // upgraded objects that no longer fit and moved
}

// waveRNG seeds the wave's private lrand48 stream. Mixing the wave
// number through a Weyl-style odd constant keeps consecutive waves'
// streams unrelated while staying a pure function of (seed, wave).
func waveRNG(seed int32, wave uint64) *LRand48 {
	return NewLRand48(seed ^ int32(wave*0x9E3779B1))
}

// ApplyWave runs update wave `wave` on a mutable dataset fork. Updates
// run under a Standard-mode transaction regardless of how the database
// was loaded — loading is the paper's transaction-off special case;
// online updates pay locks and log like §3.2's first attempt did — so
// every wave charges Lock per operation and LogWrite pages at commit,
// the simulated shadow of the real WAL append the chain store performs.
func ApplyWave(d *Dataset, wave uint64, spec WaveSpec) (*WaveReport, error) {
	if d.NumPatients == 0 || d.NumProviders == 0 {
		return nil, fmt.Errorf("derby: wave over an empty dataset")
	}
	rel, err := clientsRelationship(d)
	if err != nil {
		return nil, err
	}
	mgr := txn.NewManager(d.DB.Meter, d.DB.Client, txn.Standard)
	tx := mgr.Begin()
	rng := waveRNG(spec.Seed, wave)
	rep := &WaveReport{Wave: wave}

	for k := 0; k < spec.Reassign; k++ {
		j := rng.Intn(d.NumPatients)
		i := rng.Intn(d.NumProviders)
		if err := rel.SetParent(d.DB, tx, d.PatientRids[j], d.ProviderRids[i]); err != nil {
			return nil, fmt.Errorf("derby: wave %d reassign %d: %w", wave, k, err)
		}
		rep.Reassigned++
	}
	for k := 0; k < spec.Scalar; k++ {
		j := rng.Intn(d.NumPatients)
		v := int64(rng.Intn(2*d.NumPatients) + 1)
		if err := d.DB.UpdateAttr(tx, d.Patients, d.PatientRids[j], "num", object.IntValue(v)); err != nil {
			return nil, fmt.Errorf("derby: wave %d scalar %d: %w", wave, k, err)
		}
		rep.Scalars++
	}
	if spec.GrowEvery > 0 && wave >= 1 && wave%uint64(spec.GrowEvery) == 0 {
		// A wide attribute, and a *contiguous* run of patients upgraded to
		// carry it: consecutive mrns share pages, so the growth blows
		// through each page's 10% append reserve instead of being absorbed
		// by it — the relocation storm, concentrated the way a drifting
		// hot region concentrates real update load.
		attr := object.Attr{Name: fmt.Sprintf("rev_%d", wave), Kind: object.KindString, StrLen: 96}
		if err := d.DB.EvolveClass(d.Patients, attr, object.StringValue(fmt.Sprintf("schema wave %d", wave))); err != nil {
			return nil, fmt.Errorf("derby: wave %d evolve: %w", wave, err)
		}
		rep.Evolved = true
		start := rng.Intn(d.NumPatients)
		for k := 0; k < spec.Upgrades; k++ {
			j := (start + k) % d.NumPatients
			upgraded, relocated, err := d.DB.UpgradeObject(tx, d.Patients, d.PatientRids[j])
			if err != nil {
				return nil, fmt.Errorf("derby: wave %d upgrade %d: %w", wave, k, err)
			}
			if upgraded {
				rep.Upgraded++
			}
			if relocated {
				rep.Relocated++
			}
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, fmt.Errorf("derby: wave %d commit: %w", wave, err)
	}
	return rep, nil
}

// clientsRelationship returns the Providers.clients ↔
// Patients.primary_care_provider relationship, declaring it on first use
// (the generator wires the two sides by hand; the declaration makes
// SetParent maintain them together from here on).
func clientsRelationship(d *Dataset) (*engine.Relationship, error) {
	for _, rel := range d.DB.Relationships() {
		if rel.Parent.Name == "Providers" && rel.RefAttr == "primary_care_provider" {
			return rel, nil
		}
	}
	return d.DB.DefineRelationship(d.Providers, "clients", d.Patients, "primary_care_provider")
}
