// evolution demonstrates dynamic class evolution, the §4.4 feature whose
// per-object bookkeeping ("some information about the schema update
// history of the object class") the paper blames, with versioning, for
// O2's fat Handles: a new attribute is answered lazily with its default,
// and an eager upgrade to a wide one relocates records — the relocation
// storm a writable treebenchd's update waves pay on every evolved class.
package main

import (
	"fmt"
	"log"

	"treebench"
)

func main() {
	db := treebench.New(treebench.DefaultMachine(), treebench.DefaultCostModel(), treebench.NoTransaction)
	cls := treebench.NewClass("Doc", []treebench.Attr{
		{Name: "id", Kind: treebench.KindInt},
		{Name: "revision", Kind: treebench.KindInt},
	})
	docs, err := db.CreateExtent("Docs", cls, "docs")
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.CreateIndex(docs, "revision", false); err != nil {
		log.Fatal(err)
	}
	var rids []treebench.Rid
	for i := 0; i < 2000; i++ {
		rid, err := db.Insert(nil, docs, []treebench.Value{
			treebench.IntValue(int64(i)), treebench.IntValue(1),
		})
		if err != nil {
			log.Fatal(err)
		}
		rids = append(rids, rid)
	}

	// Lazy: a new attribute costs no rewrite until an object is upgraded.
	if err := db.EvolveClass(docs, treebench.Attr{Name: "wordcount", Kind: treebench.KindInt},
		treebench.IntValue(0)); err != nil {
		log.Fatal(err)
	}
	planner := treebench.NewPlanner(db, treebench.CostBased)
	db.ColdRestart()
	res, err := planner.Query(`select count(*) from d in Docs where d.wordcount = 0`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evolution: %d old records answer the new attribute with its default, unrewritten\n", res.Rows)

	// Eager: a 200-byte summary outgrows the page reserve, so upgrading
	// every record moves most of them behind forwarding stubs.
	if err := db.EvolveClass(docs, treebench.Attr{Name: "summary", Kind: treebench.KindString, StrLen: 200},
		treebench.StringValue("")); err != nil {
		log.Fatal(err)
	}
	db.Meter.Reset()
	upgraded, relocated := 0, 0
	for _, rid := range rids {
		up, rel, err := db.UpgradeObject(nil, docs, rid)
		if err != nil {
			log.Fatal(err)
		}
		if up {
			upgraded++
		}
		if rel {
			relocated++
		}
	}
	db.Client.Flush() // push the rewritten pages down, like a commit would
	fmt.Printf("eager upgrade: %d records rewritten, %d relocated, %d pages written (%.2fs simulated) — the §3.2 storm mechanics\n",
		upgraded, relocated, db.Meter.N.DiskWrites, db.Meter.Elapsed().Seconds())

	db.ColdRestart()
	res, err = planner.Query(`select count(*) from d in Docs where d.revision = 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d docs still read back, the moved ones through their forwarding stubs\n", res.Rows)
}
