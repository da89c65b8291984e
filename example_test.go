package fuzzydb_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"fuzzydb"

	"fuzzydb/internal/middleware"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// The paper's running example: combine a crisp relational predicate with
// a graded image-similarity query and take the best matches.
func Example() {
	eng, err := fuzzydb.NewEngine(
		[]fuzzydb.Subsystem{
			fuzzydb.NewRelationalSubsystem("Artist",
				[]string{"Beatles", "Stones", "Beatles", "Dylan"}),
			fuzzydb.NewVectorSubsystem("AlbumColor",
				[][]float64{{0.9, 0.1, 0.0}, {0.8, 0.1, 0.1}, {0.1, 0.1, 0.8}, {0.5, 0.5, 0.5}},
				map[string][]float64{"red": {1, 0, 0}}),
		},
		fuzzydb.WithObjectNames([]string{"Abbey Road", "Sticky Fingers", "Let It Be", "Nashville Skyline"}),
	)
	if err != nil {
		panic(err)
	}
	rep, err := eng.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red"`, fuzzydb.TopN(2))
	if err != nil {
		panic(err)
	}
	for i, r := range rep.Results {
		fmt.Printf("%d. %s %.3f\n", i+1, eng.Name(r.Object), r.Grade)
	}
	fmt.Println("plan:", rep.Plan.Algorithm.Name())
	// Output:
	// 1. Abbey Road 0.876
	// 2. Let It Be 0.453
	// plan: A0'
}

// Running Fagin's Algorithm directly over two graded lists.
func ExampleEvaluate() {
	colors, _ := fuzzydb.NewList([]fuzzydb.Entry{
		{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.8}, {Object: 2, Grade: 0.3},
	})
	shapes, _ := fuzzydb.NewList([]fuzzydb.Entry{
		{Object: 2, Grade: 1.0}, {Object: 0, Grade: 0.7}, {Object: 1, Grade: 0.2},
	})
	results, cost, err := fuzzydb.Evaluate(context.Background(), fuzzydb.FaginsAlgorithm,
		[]fuzzydb.Source{fuzzydb.SourceFromList(colors), fuzzydb.SourceFromList(shapes)},
		fuzzydb.Min, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("best: object %d, grade %.1f\n", results[0].Object, results[0].Grade)
	fmt.Printf("accesses: %d\n", cost.Sum())
	// Output:
	// best: object 0, grade 0.7
	// accesses: 6
}

// Weighted conjunction per Fagin–Wimmers: color twice as important as
// shape.
func ExampleNewWeighted() {
	w, err := fuzzydb.NewWeighted(fuzzydb.Min, []float64{2.0 / 3, 1.0 / 3})
	if err != nil {
		panic(err)
	}
	// f = (θ1−θ2)·x1 + 2·θ2·min(x1, x2) = (1/3)·x1 + (2/3)·min(x1, x2)
	fmt.Printf("%.3f\n", w.Apply([]float64{0.9, 0.3}))
	// Output:
	// 0.500
}

// Parsing queries into the AST.
func ExampleParseQuery() {
	q, err := fuzzydb.ParseQuery(`Color ~ "red" AND (Shape ~ "round" OR NOT Mono = "yes")`)
	if err != nil {
		panic(err)
	}
	fmt.Println(q)
	// Output:
	// Color = "red" AND (Shape = "round" OR (NOT Mono = "yes"))
}

// Serving sorted lists over HTTP and querying them across the wire:
// the engine evaluates against remote sources with the exact Section 5
// access cost an in-process run reports (the transport moves bytes,
// never costs). See examples/wireserve for the standalone program and
// cmd/fuzzyserve for the deployable server.
func Example_wireServe() {
	db := scoredb.Generator{N: 1000, M: 2, Law: scoredb.Uniform{}, Seed: 42}.MustGenerate()
	server, err := wire.NewSourceServer(map[string]subsys.Source{
		"A1": subsys.FromList(db.List(0)),
		"A2": subsys.FromList(db.List(1)),
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(server)
	defer ts.Close()

	client, err := wire.Dial(ts.URL)
	if err != nil {
		panic(err)
	}
	defer client.Close()
	eng, err := middleware.New(client.Subsystems())
	if err != nil {
		panic(err)
	}
	rep, err := eng.QueryString(context.Background(), `A1 = "*" AND A2 = "*"`,
		middleware.TopN(3), middleware.WithPrefetch(0))
	if err != nil {
		panic(err)
	}
	for i, r := range rep.Results {
		fmt.Printf("%d. object %d grade %.4f\n", i+1, r.Object, r.Grade)
	}
	fmt.Printf("cost over the wire: %v\n", rep.Cost)
	// Output:
	// 1. object 212 grade 0.9482
	// 2. object 266 grade 0.9439
	// 3. object 415 grade 0.9250
	// cost over the wire: S=134 R=62 total=196
}
