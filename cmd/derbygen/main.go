// Command derbygen builds a Derby database and reports the §3.2 loading
// statistics: elapsed simulated time, commits, relocations, page and RPC
// traffic, and the resulting file layout.
//
// Usage:
//
//	derbygen -providers 1000 -avg 3 -clustering class
//	derbygen -providers 200 -avg 1000 -clustering composition -txn standard
//	derbygen -providers 1000 -avg 3 -index-after   # the relocation storm
package main

import (
	"flag"
	"fmt"
	"os"

	"treebench"
	"treebench/internal/cli"
	"treebench/internal/storage"
	"treebench/internal/txn"
)

func main() {
	var (
		shape      = cli.ShapeFlags(flag.CommandLine, 1000, 3)
		txnMode    = flag.String("txn", "off", "loading transaction mode: off, standard")
		indexAfter = flag.Bool("index-after", false, "create indexes after the load (§3.2's blunder)")
		budget     = flag.Int("budget", 10000, "objects per transaction in standard mode")
		verify     = flag.Bool("verify", false, "run integrity checks on the generated database")
	)
	flag.Parse()

	cfg, err := shape.Config()
	if err != nil {
		fatal(err)
	}
	cfg.IndexBeforeLoad = !*indexAfter
	cfg.CreateBudget = *budget
	if *txnMode == "standard" {
		cfg.TxnMode = txn.Standard
	} else if *txnMode != "off" {
		fatal(fmt.Errorf("unknown transaction mode %q", *txnMode))
	}

	d, err := treebench.GenerateDerby(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("built %d providers × %d patients (%s), %s clustering, %s loading\n",
		d.NumProviders, d.NumPatients, d.Relationship(), cfg.Clustering, cfg.TxnMode)
	fmt.Printf("load time (simulated): %.2fs  commits: %d  relocations: %d\n",
		d.Load.Elapsed.Seconds(), d.Load.Commits, d.Load.Relocations)
	n := d.Load.Counters
	fmt.Printf("traffic: %d pages written, %d log pages, %d RPCs (%.1f MB)\n",
		n.DiskWrites, n.LogPages, n.RPCs, float64(n.RPCBytes)/(1<<20))

	fmt.Println("\nfiles:")
	total := 0
	for _, name := range d.DB.Store.Files() {
		f, err := d.DB.Store.File(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-10s %7d pages  %6.1f MB\n", name, f.NumPages(),
			float64(f.NumPages())*storage.PageSize/(1<<20))
		total += f.NumPages()
	}
	fmt.Printf("  %-10s %7d pages  %6.1f MB (disk total %d pages)\n", "TOTAL",
		total, float64(total)*storage.PageSize/(1<<20), d.DB.Store.Disk.NumPages())

	fmt.Println("\nindexes:")
	for _, extName := range d.DB.Extents() {
		ext, _ := d.DB.Extent(extName)
		for _, ix := range ext.Indexes() {
			kind := "unclustered"
			if ix.Clustered {
				kind = "clustered"
			}
			fmt.Printf("  %s.%s: %d entries, %d pages, height %d (%s)\n",
				extName, ix.Attr, ix.Backend.Len(), ix.Backend.Pages(), ix.Backend.Height(), kind)
		}
	}

	if *verify {
		fmt.Println("\nverifying:")
		if err := runVerify(d); err != nil {
			fatal(err)
		}
		fmt.Println("  all checks passed")
	}
}

// runVerify checks structural invariants of the generated database: index
// consistency, extent counts, and agreement of both relationship sides.
func runVerify(d *treebench.Dataset) error {
	db := d.DB
	// Index structure and cardinality.
	for _, extName := range db.Extents() {
		ext, err := db.Extent(extName)
		if err != nil {
			return err
		}
		for _, ix := range ext.Indexes() {
			if err := ix.Backend.Validate(db.Client); err != nil {
				return fmt.Errorf("index %s.%s: %w", extName, ix.Attr, err)
			}
			if ix.Backend.Len() != ext.Count {
				return fmt.Errorf("index %s.%s holds %d entries for %d objects",
					extName, ix.Attr, ix.Backend.Len(), ext.Count)
			}
		}
		fmt.Printf("  %s: %d objects, %d indexes consistent\n", extName, ext.Count, len(ext.Indexes()))
	}
	// Relationship agreement via a throwaway declared relationship.
	rel, err := db.DefineRelationship(d.Providers, "clients", d.Patients, "primary_care_provider")
	if err != nil {
		return err
	}
	if err := rel.VerifyConsistency(db); err != nil {
		return err
	}
	fmt.Printf("  clients ↔ primary_care_provider agree for %d patients\n", d.NumPatients)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "derbygen:", err)
	os.Exit(1)
}
