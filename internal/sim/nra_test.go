package sim

import (
	"context"
	"testing"
	"testing/quick"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// nraAgrees runs NRA and the naive drain on db and reports whether NRA's
// objects are a correct top k. NRA's grades are lower bounds, so the
// objects are judged on their true grades, recomputed from db.
func nraAgrees(t *testing.T, db *scoredb.Database, f agg.Func, k int) bool {
	t.Helper()
	eval := func(alg core.Algorithm) []core.Result {
		srcs := make([]subsys.Source, db.M())
		for j := range srcs {
			srcs[j] = subsys.FromList(db.List(j))
		}
		res, _, err := core.Evaluate(context.Background(), alg, srcs, f, k)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		return res
	}
	want := eval(core.NaiveSorted{})
	got := eval(nra{})
	wantEs := make([]gradedset.Entry, len(want))
	for i, r := range want {
		wantEs[i] = gradedset.Entry{Object: r.Object, Grade: r.Grade}
	}
	gotEs := make([]gradedset.Entry, len(got))
	for i, r := range got {
		gs, err := db.Grades(r.Object)
		if err != nil {
			t.Fatal(err)
		}
		gotEs[i] = gradedset.Entry{Object: r.Object, Grade: f.Apply(gs)}
	}
	if !gradedset.SameGradeMultiset(gotEs, wantEs, 1e-12) {
		t.Logf("%s, k=%d: NRA %v, naive %v", f.Name(), k, got, want)
		return false
	}
	return true
}

// TestNRAAgreesWithNaiveMinProperty: under min, across laws, shapes, tie
// regimes and correlations, NRA returns a correct top k.
func TestNRAAgreesWithNaiveMinProperty(t *testing.T) {
	f := func(seed uint64) bool {
		laws := []scoredb.GradeLaw{
			scoredb.Uniform{},
			scoredb.Discrete{Levels: 4}, // heavy ties
			scoredb.Binary{P: 0.4},      // degenerate ties
			scoredb.BoundedAbove{Max: 0.8},
		}
		law := laws[seed%uint64(len(laws))]
		n := 5 + int(seed%60)
		m := 2 + int(seed%3)
		k := 1 + int(seed%uint64(n))
		corr := float64(int(seed%5)-2) / 2 // -1, -0.5, 0, 0.5, 1
		db, err := (scoredb.Generator{N: n, M: m, Law: law, Seed: seed, Correlation: corr}).Generate()
		if err != nil {
			t.Log(err)
			return false
		}
		return nraAgrees(t, db, agg.Min, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestNRAWithGeneralMonotoneFunctions: NRA's top k is correct for every
// monotone aggregation, not just min.
func TestNRAWithGeneralMonotoneFunctions(t *testing.T) {
	funcs := []agg.Func{
		agg.AlgebraicProduct, agg.EinsteinProduct, agg.HamacherProduct,
		agg.BoundedDifference, agg.DrasticProduct,
		agg.ArithmeticMean, agg.GeometricMean,
		agg.Median, agg.Gymnastics, agg.Max,
	}
	f := func(seed uint64) bool {
		n := 5 + int(seed%40)
		m := 3 + int(seed%2) // gymnastics needs >= 3
		k := 1 + int(seed%5)
		if k > n {
			k = n
		}
		db, err := (scoredb.Generator{N: n, M: m, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		return nraAgrees(t, db, funcs[seed%uint64(len(funcs))], k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
