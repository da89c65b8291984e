package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// sourcesOf adapts a scoring database's lists to subsystem sources.
func sourcesOf(db *scoredb.Database) []subsys.Source {
	srcs := make([]subsys.Source, db.M())
	for i := range srcs {
		srcs[i] = subsys.FromList(db.List(i))
	}
	return srcs
}

// run evaluates alg on db with fresh counters.
func run(t *testing.T, alg Algorithm, db *scoredb.Database, f agg.Func, k int) ([]Result, cost.Cost) {
	t.Helper()
	res, c, err := Evaluate(context.Background(), alg, sourcesOf(db), f, k)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res, c
}

// entriesOf converts results for multiset comparison.
func entriesOf(rs []Result) []gradedset.Entry {
	es := make([]gradedset.Entry, len(rs))
	for i, r := range rs {
		es[i] = gradedset.Entry{Object: r.Object, Grade: r.Grade}
	}
	return es
}

func TestA0HandExample(t *testing.T) {
	// Colors: obj2 best; Shapes: obj1 best. Under min, obj0 wins.
	db, err := scoredb.FromMatrix([][]float64{
		{0.7, 0.2, 0.9, 0.3}, // A1
		{0.6, 0.8, 0.1, 0.4}, // A2
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := run(t, A0{}, db, agg.Min, 2)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Object != 0 || math.Abs(res[0].Grade-0.6) > 1e-12 {
		t.Errorf("top = %v, want (0, 0.6)", res[0])
	}
	if res[1].Object != 3 || math.Abs(res[1].Grade-0.3) > 1e-12 {
		t.Errorf("second = %v, want (3, 0.3)", res[1])
	}
}

func TestArgumentValidation(t *testing.T) {
	db, err := scoredb.FromMatrix([][]float64{{0.5, 0.2}, {0.4, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{NaiveSorted{}, A0{}, A0Prime{}, B0{}, TA{}, Ullman{}, OrderStat{J: 1}}
	for _, alg := range algs {
		lists := subsys.CountAll(sourcesOf(db))
		if _, err := alg.TopK(Background(), lists, agg.Min, 0); !errors.Is(err, ErrBadK) {
			t.Errorf("%s: k=0 error = %v", alg.Name(), err)
		}
		if _, err := alg.TopK(Background(), lists, agg.Min, 3); !errors.Is(err, ErrBadK) {
			t.Errorf("%s: k>N error = %v", alg.Name(), err)
		}
		if _, err := alg.TopK(Background(), nil, agg.Min, 1); err == nil {
			t.Errorf("%s: empty lists accepted", alg.Name())
		}
	}
	// Arity errors.
	db3, err := scoredb.FromMatrix([][]float64{{0.5}, {0.4}, {0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Ullman{}).TopK(Background(), subsys.CountAll(sourcesOf(db3)), agg.Min, 1); !errors.Is(err, ErrArity) {
		t.Errorf("ullman m=3 error = %v", err)
	}
	if _, err := (Ullman{Probe: 2}).TopK(Background(), subsys.CountAll(sourcesOf(db)), agg.Min, 1); !errors.Is(err, ErrArity) {
		t.Errorf("ullman probe=2 error = %v", err)
	}
	if _, err := (OrderStat{J: 5}).TopK(Background(), subsys.CountAll(sourcesOf(db)), agg.Median, 1); !errors.Is(err, ErrArity) {
		t.Errorf("orderstat j>m error = %v", err)
	}
}

// The central cross-validation: every exact algorithm agrees with the
// naive baseline (as a grade multiset) on randomized databases, across
// laws, shapes, and tie regimes.
func TestAlgorithmsAgreeWithNaiveMinProperty(t *testing.T) {
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
		want, _ := run(t, NaiveSorted{}, db, agg.Min, k)
		algs := []Algorithm{
			A0{},
			A0Prime{},
			TA{},
			OrderStat{J: m}, // j = m is min via subsets (single subset)
		}
		if m == 2 {
			algs = append(algs, Ullman{}, Ullman{Probe: 1})
		}
		for _, alg := range algs {
			got, _ := run(t, alg, db, agg.Min, k)
			if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
				t.Logf("seed=%d n=%d m=%d k=%d law=%s corr=%v alg=%s\n got=%v\nwant=%v",
					seed, n, m, k, law.Name(), corr, alg.Name(), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// A0 and TA are correct for every monotone aggregation, not just min.
func TestA0AndTAWithGeneralMonotoneFunctions(t *testing.T) {
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
		fn := funcs[seed%uint64(len(funcs))]
		want, _ := run(t, NaiveSorted{}, db, fn, k)
		for _, alg := range []Algorithm{A0{}, TA{}} {
			got, _ := run(t, alg, db, fn, k)
			if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
				t.Logf("seed=%d fn=%s alg=%s: got=%v want=%v", seed, fn.Name(), alg.Name(), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The parameterized t-norm families stay correct under the same
// algorithms: members are monotone (A₀/TA correct) and strict.
func TestA0WithTNormFamiliesProperty(t *testing.T) {
	families := []agg.Func{
		agg.YagerTNorm(0.5), agg.YagerTNorm(2),
		agg.HamacherFamily(0.5), agg.HamacherFamily(3),
		agg.FrankTNorm(0.5), agg.FrankTNorm(5),
		agg.DombiTNorm(1), agg.SchweizerSklarTNorm(2),
	}
	f := func(seed uint64) bool {
		n := 5 + int(seed%40)
		m := 2 + int(seed%3)
		k := 1 + int(seed%4)
		if k > n {
			k = n
		}
		db, err := (scoredb.Generator{N: n, M: m, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		fn := families[seed%uint64(len(families))]
		want, _ := run(t, NaiveSorted{}, db, fn, k)
		for _, alg := range []Algorithm{A0{}, TA{}} {
			got, _ := run(t, alg, db, fn, k)
			if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
				t.Logf("seed=%d fn=%s alg=%s: got=%v want=%v", seed, fn.Name(), alg.Name(), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Weighted conjunctions (FW97) are monotone, so A₀ evaluates them too.
func TestA0WithWeightedConjunction(t *testing.T) {
	f := func(seed uint64) bool {
		n := 5 + int(seed%30)
		k := 1 + int(seed%4)
		if k > n {
			k = n
		}
		db, err := (scoredb.Generator{N: n, M: 3, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		w, err := agg.NewWeighted(agg.Min, []float64{0.5, 0.3, 0.2})
		if err != nil {
			return false
		}
		want, _ := run(t, NaiveSorted{}, db, w, k)
		got, _ := run(t, A0{}, db, w, k)
		return gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestB0AgreesWithNaiveOnMaxProperty(t *testing.T) {
	f := func(seed uint64) bool {
		laws := []scoredb.GradeLaw{scoredb.Uniform{}, scoredb.Discrete{Levels: 3}}
		law := laws[seed%2]
		n := 3 + int(seed%50)
		m := 1 + int(seed%4)
		k := 1 + int(seed%uint64(n))
		db, err := (scoredb.Generator{N: n, M: m, Law: law, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		want, _ := run(t, NaiveSorted{}, db, agg.Max, k)
		got, _ := run(t, B0{}, db, agg.Max, k)
		if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
			t.Logf("seed=%d n=%d m=%d k=%d: got=%v want=%v", seed, n, m, k, got, want)
			return false
		}
		// OrderStat{J:1} is max via subsets.
		got2, _ := run(t, OrderStat{J: 1}, db, agg.Max, k)
		return gradedset.SameGradeMultiset(entriesOf(got2), entriesOf(want), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestMedianAlgorithmAgreesWithNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 4 + int(seed%40)
		m := 3 + int(seed%3) // 3..5
		k := 1 + int(seed%4)
		if k > n {
			k = n
		}
		db, err := (scoredb.Generator{N: n, M: m, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		want, _ := run(t, NaiveSorted{}, db, agg.Median, k)
		got, _ := run(t, OrderStat{}, db, agg.Median, k)
		if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
			t.Logf("seed=%d n=%d m=%d k=%d: got=%v want=%v", seed, n, m, k, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestOrderStatAllJ(t *testing.T) {
	db := scoredb.Generator{N: 25, M: 4, Seed: 17}.MustGenerate()
	for j := 1; j <= 4; j++ {
		fn := agg.OrderStatistic(j)
		want, _ := run(t, NaiveSorted{}, db, fn, 5)
		got, _ := run(t, OrderStat{J: j}, db, fn, 5)
		if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
			t.Errorf("j=%d: got=%v want=%v", j, got, want)
		}
	}
}

func TestHardQueryAllAlgorithms(t *testing.T) {
	// Section 7: Q ∧ ¬Q. All exact algorithms must still be correct; the
	// cost theorem says they are all slow, not wrong.
	db, err := scoredb.HardQueryPair(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := run(t, NaiveSorted{}, db, agg.Min, 1)
	if want[0].Grade > 0.5 {
		t.Fatalf("top grade of Q∧¬Q is %v, cannot exceed 1/2", want[0].Grade)
	}
	for _, alg := range []Algorithm{A0{}, A0Prime{}, TA{}, Ullman{}} {
		got, _ := run(t, alg, db, agg.Min, 1)
		if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
			t.Errorf("%s: got=%v want=%v", alg.Name(), got, want)
		}
	}
}

func TestKEqualsN(t *testing.T) {
	// Remark 5.2: k = N must return every object with its exact grade.
	db := scoredb.Generator{N: 12, M: 2, Seed: 21}.MustGenerate()
	want, _ := run(t, NaiveSorted{}, db, agg.Min, 12)
	for _, alg := range []Algorithm{A0{}, A0Prime{}, TA{}, Ullman{}} {
		got, _ := run(t, alg, db, agg.Min, 12)
		if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
			t.Errorf("%s at k=N: got=%v want=%v", alg.Name(), got, want)
		}
	}
}

func TestSingleListDegenerates(t *testing.T) {
	// m = 1: top-k is just the list prefix, for any sensible algorithm.
	db := scoredb.Generator{N: 20, M: 1, Seed: 22}.MustGenerate()
	want, _ := run(t, NaiveSorted{}, db, agg.Min, 5)
	for _, alg := range []Algorithm{A0{}, A0Prime{}, TA{}, B0{}} {
		got, _ := run(t, alg, db, agg.Min, 5)
		if !gradedset.SameGradeMultiset(entriesOf(got), entriesOf(want), 1e-12) {
			t.Errorf("%s at m=1: got=%v want=%v", alg.Name(), got, want)
		}
	}
}

func TestResultsSortedDescending(t *testing.T) {
	db := scoredb.Generator{N: 50, M: 2, Seed: 23}.MustGenerate()
	for _, alg := range []Algorithm{NaiveSorted{}, A0{}, A0Prime{}, TA{}, B0{}, Ullman{}} {
		f := agg.Min
		if alg.Name() == "B0" {
			f = agg.Max
		}
		res, _ := run(t, alg, db, f, 10)
		if len(res) != 10 {
			t.Fatalf("%s returned %d results", alg.Name(), len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Grade > res[i-1].Grade {
				t.Errorf("%s results not sorted at %d", alg.Name(), i)
			}
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{Object: 3, Grade: 0.25}
	if r.String() != "(3, 0.2500)" {
		t.Errorf("String = %q", r.String())
	}
}
