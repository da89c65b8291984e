package fuzzydb_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fuzzydb"
)

// buildCDStore assembles the paper's running example through the public
// API only.
func buildCDStore(t *testing.T) *fuzzydb.Engine {
	t.Helper()
	names := []string{"Abbey Road", "Let It Be", "Sticky Fingers", "Beggars Banquet", "Nashville Skyline", "Revolver"}
	artists := []string{"Beatles", "Beatles", "Stones", "Stones", "Dylan", "Beatles"}
	covers := [][]float64{
		{0.8, 0.1, 0.1}, {0.1, 0.1, 0.1}, {0.9, 0.05, 0.05},
		{0.6, 0.5, 0.3}, {0.1, 0.2, 0.8}, {0.7, 0.2, 0.1},
	}
	titles := []string{
		"Abbey Road remaster", "Let It Be original mix", "Sticky Fingers deluxe",
		"Beggars Banquet", "Nashville Skyline", "Revolver mono",
	}
	eng, err := fuzzydb.NewEngine(
		[]fuzzydb.Subsystem{
			fuzzydb.NewRelationalSubsystem("Artist", artists),
			fuzzydb.NewVectorSubsystem("AlbumColor", covers, map[string][]float64{
				"red": {1, 0, 0}, "blue": {0, 0, 1},
			}),
			fuzzydb.NewTextSubsystem("Title", titles),
		},
		fuzzydb.WithObjectNames(names),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEndToEndRunningExample(t *testing.T) {
	eng := buildCDStore(t)
	rep, err := eng.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red"`, fuzzydb.TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results: %v", rep.Results)
	}
	if eng.Name(rep.Results[0].Object) != "Abbey Road" {
		t.Errorf("top album = %q, want Abbey Road", eng.Name(rep.Results[0].Object))
	}
	if rep.Plan.Algorithm.Name() != "A0'" {
		t.Errorf("plan = %s", rep.Plan.Algorithm.Name())
	}
	if rep.Cost.Sum() == 0 {
		t.Error("cost not recorded")
	}
}

func TestEndToEndThreeSubsystems(t *testing.T) {
	eng := buildCDStore(t)
	rep, err := eng.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red" AND Title = "remaster"`, fuzzydb.TopN(2))
	if err != nil {
		t.Fatal(err)
	}
	// Only Abbey Road matches all three well.
	if eng.Name(rep.Results[0].Object) != "Abbey Road" {
		t.Errorf("top = %q", eng.Name(rep.Results[0].Object))
	}
	if rep.Results[0].Grade <= rep.Results[1].Grade {
		t.Errorf("grades not separated: %v", rep.Results)
	}
}

func TestMedianQueryThroughFacade(t *testing.T) {
	// The median of three atoms, spelled as the OR of their pairwise ANDs,
	// plans the subset decomposition; MedianAlgorithm pins the same
	// algorithm, so the answers and their cost agree.
	eng := buildCDStore(t)
	q := `(Artist = "Beatles" AND AlbumColor ~ "red") OR (Artist = "Beatles" AND AlbumColor ~ "blue") OR (AlbumColor ~ "red" AND AlbumColor ~ "blue")`
	planned, err := eng.QueryString(context.Background(), q, fuzzydb.TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := eng.QueryString(context.Background(), q, fuzzydb.TopN(3), fuzzydb.WithAlgorithm(fuzzydb.MedianAlgorithm))
	if err != nil {
		t.Fatal(err)
	}
	if planned.Plan.Algorithm.Name() != "orderstat-2-via-subsets" || pinned.Plan.Algorithm.Name() != "median-via-subsets" {
		t.Errorf("planned %s, pinned %s", planned.Plan.Algorithm.Name(), pinned.Plan.Algorithm.Name())
	}
	if !reflect.DeepEqual(planned.Results, pinned.Results) || planned.Cost != pinned.Cost {
		t.Errorf("planned %v at %v, pinned %v at %v", planned.Results, planned.Cost, pinned.Results, pinned.Cost)
	}
}

func TestDirectAlgorithmAccess(t *testing.T) {
	// Library users can bypass the engine: generate a synthetic workload
	// and run the algorithm family directly.
	db := fuzzydb.DatabaseGenerator{N: 2000, M: 2, Law: fuzzydb.UniformLaw{}, Seed: 7}.MustGenerate()
	srcs := fuzzydb.DatabaseSources(db)
	res, c, err := fuzzydb.Evaluate(context.Background(), fuzzydb.FaginsAlgorithm, srcs, fuzzydb.Min, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("results: %v", res)
	}
	if c.Sum() >= 2*2000 {
		t.Errorf("A0 cost %v not sublinear", c)
	}
	// Same answers from the naive baseline.
	want, _, err := fuzzydb.Evaluate(context.Background(), fuzzydb.NaiveAlgorithm, fuzzydb.DatabaseSources(db), fuzzydb.Min, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res[i].Grade-want[i].Grade) > 1e-12 {
			t.Errorf("grade %d: %v vs %v", i, res[i], want[i])
		}
	}
}

func TestAlgorithmFamilyExported(t *testing.T) {
	db := fuzzydb.DatabaseGenerator{N: 300, M: 2, Seed: 8}.MustGenerate()
	algs := []fuzzydb.Algorithm{
		fuzzydb.FaginsAlgorithm, fuzzydb.FaginsAlgorithmPrime,
		fuzzydb.ThresholdAlgorithm, fuzzydb.UllmanAlgorithm, fuzzydb.NaiveAlgorithm,
	}
	var ref []fuzzydb.Result
	for i, alg := range algs {
		res, _, err := fuzzydb.Evaluate(context.Background(), alg, fuzzydb.DatabaseSources(db), fuzzydb.Min, 4)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if i == 0 {
			ref = res
			continue
		}
		for j := range ref {
			if math.Abs(res[j].Grade-ref[j].Grade) > 1e-12 {
				t.Errorf("%s disagrees at %d: %v vs %v", alg.Name(), j, res[j], ref[j])
			}
		}
	}
}

func TestWeightedQueryThroughPublicAPI(t *testing.T) {
	// "Color matters twice as much as shape" (FW97 / Section 4).
	db := fuzzydb.DatabaseGenerator{N: 500, M: 2, Seed: 9}.MustGenerate()
	w, err := fuzzydb.NewWeighted(fuzzydb.Min, []float64{2.0 / 3, 1.0 / 3})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := fuzzydb.Evaluate(context.Background(), fuzzydb.FaginsAlgorithm, fuzzydb.DatabaseSources(db), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fuzzydb.Evaluate(context.Background(), fuzzydb.NaiveAlgorithm, fuzzydb.DatabaseSources(db), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res[i].Grade-want[i].Grade) > 1e-12 {
			t.Errorf("weighted grade %d: %v vs %v", i, res[i], want[i])
		}
	}
}

func TestPaginationThroughPublicAPI(t *testing.T) {
	eng := buildCDStore(t)
	q, err := fuzzydb.ParseQuery(`Artist = "Beatles" AND AlbumColor ~ "red"`)
	if err != nil {
		t.Fatal(err)
	}
	var got []fuzzydb.Result
	for r, err := range eng.Results(context.Background(), q, fuzzydb.TopN(2)) {
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, r); len(got) == 4 {
			break
		}
	}
	if len(got) != 4 {
		t.Fatalf("two pages of 2: %v", got)
	}
}

func TestFilterThroughPublicAPI(t *testing.T) {
	eng := buildCDStore(t)
	q, err := fuzzydb.ParseQuery(`AlbumColor ~ "red"`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Filter(context.Background(), q, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Grade < 0.6 {
			t.Errorf("filter leaked %v", r)
		}
	}
}

func TestNonStandardSemanticsThroughPublicAPI(t *testing.T) {
	names := []string{"a", "b", "c"}
	artists := []string{"X", "X", "Y"}
	covers := [][]float64{{1, 0}, {0.5, 0.5}, {0, 1}}
	eng, err := fuzzydb.NewEngine(
		[]fuzzydb.Subsystem{
			fuzzydb.NewRelationalSubsystem("Artist", artists),
			fuzzydb.NewVectorSubsystem("Color", covers, map[string][]float64{"red": {1, 0}}),
		},
		fuzzydb.WithObjectNames(names),
		fuzzydb.WithSemantics(fuzzydb.SemanticsWithTNorm(fuzzydb.AlgebraicProduct)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.QueryString(context.Background(), `Artist = "X" AND Color ~ "red"`, fuzzydb.TopN(1))
	if err != nil {
		t.Fatal(err)
	}
	// Under the product, the grade is 1 * similarity(a, red) = 1.
	if rep.Results[0].Object != 0 {
		t.Errorf("top = %v", rep.Results[0])
	}
	// Product conjunction is monotone but not min: planner must use A0.
	if rep.Plan.Algorithm.Name() != "A0" {
		t.Errorf("plan = %s, want A0", rep.Plan.Algorithm.Name())
	}
}

func TestGradedSetPublicAPI(t *testing.T) {
	s := fuzzydb.NewGradedSet()
	if err := s.Insert(0, 0.5); err != nil {
		t.Fatal(err)
	}
	l, err := fuzzydb.NewList([]fuzzydb.Entry{{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	src := fuzzydb.SourceFromList(l)
	if src.Len() != 2 || src.Grade(0) != 0.9 {
		t.Error("SourceFromList broken")
	}
	sub := fuzzydb.NewStaticSubsystem("S", 2)
	sub.Set("t", l)
	if got, err := sub.Query("t"); err != nil || got.Len() != 2 {
		t.Error("StaticSubsystem broken")
	}
}

func TestOWAThroughPublicAPI(t *testing.T) {
	// Median as an OWA operator, evaluated by A0 (monotone).
	owa, err := fuzzydb.NewOWA([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fuzzydb.NewOWA([]float64{0.5}); err == nil {
		t.Error("bad OWA weights accepted")
	}
	db := fuzzydb.DatabaseGenerator{N: 200, M: 3, Seed: 10}.MustGenerate()
	res, _, err := fuzzydb.Evaluate(context.Background(), fuzzydb.FaginsAlgorithm, fuzzydb.DatabaseSources(db), owa, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fuzzydb.Evaluate(context.Background(), fuzzydb.NaiveAlgorithm, fuzzydb.DatabaseSources(db), fuzzydb.Median, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res[i].Grade-want[i].Grade) > 1e-12 {
			t.Errorf("OWA median %v != median %v", res[i], want[i])
		}
	}
}

func TestCostModelPublicAPI(t *testing.T) {
	m := fuzzydb.CostModel{C1: 2, C2: 1}
	c := fuzzydb.Cost{Sorted: 5, Random: 3}
	if m.Of(c) != 13 {
		t.Errorf("weighted cost = %v", m.Of(c))
	}
}

func TestRequestAPIThroughFacade(t *testing.T) {
	eng := buildCDStore(t)
	ctx := context.Background()
	old, err := eng.QueryString(ctx, `Artist = "Beatles" AND AlbumColor ~ "red"`, fuzzydb.TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]fuzzydb.QueryOption{
		{fuzzydb.TopN(3)},
		{fuzzydb.TopN(3), fuzzydb.WithParallelism(2)},
	} {
		rep, err := eng.QueryString(ctx, `Artist = "Beatles" AND AlbumColor ~ "red"`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cost != old.Cost || len(rep.Results) != len(old.Results) {
			t.Fatalf("Query under %d options disagrees with the plain request: %v %v vs %v %v", len(opts),
				rep.Results, rep.Cost, old.Results, old.Cost)
		}
		for i := range rep.Results {
			if rep.Results[i] != old.Results[i] {
				t.Errorf("result %d: %v != %v", i, rep.Results[i], old.Results[i])
			}
		}
	}

	// Streaming matches the one-shot evaluation prefix.
	q, err := fuzzydb.ParseQuery(`Artist = "Beatles" AND AlbumColor ~ "red"`)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []fuzzydb.Result
	for r, err := range eng.Results(ctx, q, fuzzydb.TopN(2)) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
		if len(streamed) == 3 {
			break
		}
	}
	for i := range streamed {
		if streamed[i] != old.Results[i] {
			t.Errorf("streamed %d: %v != %v", i, streamed[i], old.Results[i])
		}
	}

	// Direct evaluation under both executors through the facade.
	db := fuzzydb.DatabaseGenerator{N: 800, M: 3, Law: fuzzydb.UniformLaw{}, Seed: 9}.MustGenerate()
	serialRes, serialCost, err := fuzzydb.Evaluate(ctx, fuzzydb.FaginsAlgorithm, fuzzydb.DatabaseSources(db), fuzzydb.Min, 6)
	if err != nil {
		t.Fatal(err)
	}
	concRes, concCost, err := fuzzydb.Evaluate(ctx, fuzzydb.FaginsAlgorithm, fuzzydb.DatabaseSources(db), fuzzydb.Min, 6,
		fuzzydb.WithEvalExecutor(fuzzydb.PipelinedExecutor(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if serialCost != concCost {
		t.Fatalf("executor cost mismatch: %v vs %v", serialCost, concCost)
	}
	for i := range serialRes {
		if serialRes[i] != concRes[i] {
			t.Errorf("executor result %d mismatch", i)
		}
	}
}

func TestBudgetThroughFacade(t *testing.T) {
	eng := buildCDStore(t)
	db := fuzzydb.DatabaseGenerator{N: 4000, M: 2, Law: fuzzydb.UniformLaw{}, Seed: 10}.MustGenerate()
	_, _, err := fuzzydb.Evaluate(context.Background(), fuzzydb.FaginsAlgorithm, fuzzydb.DatabaseSources(db), fuzzydb.Min, 10,
		fuzzydb.WithEvalBudget(25))
	if !errors.Is(err, fuzzydb.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *fuzzydb.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not expose *fuzzydb.BudgetError", err)
	}
	_ = eng
}
