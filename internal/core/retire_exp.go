package core

import (
	"fmt"

	"treebench/internal/collection"
	"treebench/internal/derby"
	"treebench/internal/object"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// DoctorRetires reproduces §4.4's motivating update scenario: "Suppose
// that we have a collection containing all patients … indexed by their
// primary care provider attribute. Now, suppose that one doctor retires and
// that we want to assign nil to all his/her patients. How will the system
// know which index to update unless each patient carries that
// information?"
//
// The experiment indexes Patients by primary_care_provider, retires a
// fraction of the providers, and measures the header-driven index
// maintenance the engine performs, next to the cost of the alternative the
// paper dismisses — scanning every index on the class per update batch to
// find the entries.
func (r *Runner) DoctorRetires() (*Table, error) {
	// This experiment mutates the database, so it runs on a writable
	// copy-on-write fork of the shared snapshot: the updates stay private
	// to this session while the generation is still shared with every
	// read-only experiment on the same configuration.
	p, a := r.smallScale()
	d, err := r.mutableDataset(p, a, derby.ClassCluster)
	if err != nil {
		return nil, err
	}
	db := d.DB
	// The §4.4 index: patients by their provider.
	pcpIx, _, err := db.CreateIndex(d.Patients, "primary_care_provider", false)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "D1",
		Title: "A doctor retires (§4.4): header-driven index maintenance vs scanning all indexes",
		Columns: []string{"retired providers", "patients updated",
			"time (sec)", "pages read", "naive scan-all-indexes estimate (sec)"},
	}

	clientsIdx := d.Providers.Class.AttrIndex("clients")
	// Total leaf pages of every index on Patients — what the naive system
	// would have to scan per update batch to locate memberships.
	allIndexPages := 0
	for _, ix := range d.Patients.Indexes() {
		allIndexPages += ix.Backend.Pages()
	}

	retired := 0
	for _, pct := range []int{1, 5} {
		target := d.NumProviders * pct / 100
		if target <= retired {
			target = retired + 1 // at tiny scales every wave retires someone
		}
		db.ColdRestart()
		updates := 0
		for ; retired < target; retired++ {
			prid := d.ProviderRids[retired]
			rec, err := storage.Get(db.Client, prid)
			if err != nil {
				return nil, err
			}
			v, err := object.DecodeAttr(d.Providers.Class, rec, clientsIdx)
			if err != nil {
				return nil, err
			}
			members, err := collection.Elems(db.Client, v.Ref)
			if err != nil {
				return nil, err
			}
			for _, m := range members {
				if err := db.UpdateAttr(nil, d.Patients, m, "primary_care_provider",
					object.RefValue(storage.NilRid)); err != nil {
					return nil, err
				}
				updates++
			}
		}
		elapsed := db.Meter.Elapsed().Seconds()
		pages := db.Meter.N.DiskReads
		// The dismissed alternative: without per-object membership lists,
		// each update must search every index on the class for entries
		// referencing the object — a full leaf scan per index per update,
		// since an index on an arbitrary collection need not be keyed by
		// anything the update knows.
		naive := elapsed + sim.Seconds(db.Meter, sim.Counters{DiskReads: int64(updates * allIndexPages)})
		t.AddRow(fmt.Sprintf("%d (%d%%)", target, pct), updates, elapsed, pages, naive)
		r.logf("  retire %d%%: %d updates in %.2fs (naive est %.0fs)", pct, updates, elapsed, naive)
	}
	// Consistency: the nil key now holds every updated patient.
	nilKey := int64(storage.NilRid.Page)<<16 | int64(storage.NilRid.Slot)
	rids, err := pcpIx.Backend.Lookup(db.Client, nilKey)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("after both waves the provider index holds %d patients under nil — maintained entirely through the objects' header membership lists", len(rids)),
		"the naive estimate prices §4.4's dismissed alternative ('we scan all indexes containing patients, but that is obviously not a reasonable solution')")
	return t, nil
}
