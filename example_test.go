package treebench_test

// Runnable, tested documentation examples (go test executes these and
// checks the Output comments; godoc renders them).

import (
	"fmt"

	"treebench"
)

// Example builds a small custom database and runs OQL through the
// cost-based optimizer, the library's basic loop.
func Example() {
	db := treebench.New(treebench.DefaultMachine(), treebench.DefaultCostModel(), treebench.NoTransaction)
	books := treebench.NewClass("Book", []treebench.Attr{
		{Name: "title", Kind: treebench.KindString, StrLen: 16},
		{Name: "year", Kind: treebench.KindInt},
	})
	ext, err := db.CreateExtent("Books", books, "books")
	if err != nil {
		panic(err)
	}
	if _, _, err := db.CreateIndex(ext, "year", true); err != nil {
		panic(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Insert(nil, ext, []treebench.Value{
			treebench.StringValue("book"), treebench.IntValue(int64(1900 + i%120)),
		}); err != nil {
			panic(err)
		}
	}
	planner := treebench.NewPlanner(db, treebench.CostBased)
	db.ColdRestart()
	res, err := planner.Query(`select count(*) from b in Books where b.year >= 2000`)
	if err != nil {
		panic(err)
	}
	fmt.Println("books from 2000 on:", res.Rows)
	// Output: books from 2000 on: 160
}

// ExampleGenerateDerby reproduces one cell of the paper's Figure 11 grid:
// the deterministic generator and simulated time make the comparison
// exact on every machine.
func ExampleGenerateDerby() {
	d, err := treebench.GenerateDerby(
		treebench.DerbyConfig(50, 100, treebench.ClassCluster))
	if err != nil {
		panic(err)
	}
	env := treebench.DerbyJoinEnv(d)
	q := env.BySelectivity(10, 10)
	for _, algo := range []treebench.Algorithm{treebench.PHJ, treebench.NL} {
		d.DB.ColdRestart()
		res, err := treebench.RunJoin(env, algo, q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d tuples\n", algo, res.Tuples)
	}
	// Output:
	// PHJ: 51 tuples
	// NL: 51 tuples
}

// ExampleParseOQL shows the parser round-tripping the paper's §5 query.
func ExampleParseOQL() {
	q, err := treebench.ParseOQL(`select p.name, pa.age
		from p in Providers, pa in p.clients
		where pa.mrn < 100 and p.upin < 50`)
	if err != nil {
		panic(err)
	}
	fmt.Println(q)
	// Output: select p.name, pa.age from p in Providers, pa in p.clients where pa.mrn < 100 and p.upin < 50
}
