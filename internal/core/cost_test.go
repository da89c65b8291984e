package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

func TestNaiveCosts(t *testing.T) {
	db := scoredb.Generator{N: 30, M: 3, Seed: 31}.MustGenerate()
	_, c := run(t, NaiveSorted{}, db, agg.Min, 5)
	if c.Sorted != 90 || c.Random != 0 {
		t.Errorf("naive-sorted cost = %v, want S=90 R=0", c)
	}
}

func TestB0CostIsMK(t *testing.T) {
	// Remark 6.1: B₀ costs mk sorted accesses and nothing else,
	// independent of N.
	for _, n := range []int{50, 500, 5000} {
		db := scoredb.Generator{N: n, M: 3, Seed: 32}.MustGenerate()
		_, c := run(t, B0{}, db, agg.Max, 10)
		if c.Sorted != 30 || c.Random != 0 {
			t.Errorf("N=%d: B0 cost = %v, want S=30 R=0", n, c)
		}
	}
}

func TestA0CostSublinearVsNaive(t *testing.T) {
	// Not a statistical test, just a smoke check on one large instance:
	// A₀ must touch far fewer elements than the naive baseline.
	db := scoredb.Generator{N: 20000, M: 2, Seed: 33}.MustGenerate()
	_, cA0 := run(t, A0{}, db, agg.Min, 10)
	_, cNaive := run(t, NaiveSorted{}, db, agg.Min, 10)
	if cA0.Sum() >= cNaive.Sum()/4 {
		t.Errorf("A0 cost %v vs naive %v: not clearly sublinear", cA0, cNaive)
	}
}

func TestA0PrimeSavesRandomAccesses(t *testing.T) {
	// A₀′ never performs more random accesses than A₀ on the same
	// skeleton (it probes a subset of the objects A₀ probes).
	f := func(seed uint64) bool {
		db, err := (scoredb.Generator{N: 200 + int(seed%200), M: 3, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		_, cA0 := run(t, A0{}, db, agg.Min, 5)
		_, cPrime := run(t, A0Prime{}, db, agg.Min, 5)
		if cPrime.Sorted != cA0.Sorted {
			// Same sorted phase (both run to the same uniform depth).
			return false
		}
		return cPrime.Random <= cA0.Random
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTANeverScansDeeperThanA0(t *testing.T) {
	f := func(seed uint64) bool {
		db, err := (scoredb.Generator{N: 100 + int(seed%400), M: 2, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		_, cA0 := run(t, A0{}, db, agg.Min, 5)
		_, cTA := run(t, TA{}, db, agg.Min, 5)
		return cTA.Sorted <= cA0.Sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUllmanConstantCostOnBoundedGrades(t *testing.T) {
	// Section 9: if list 1's grades are ≤ 0.9 and list 2's are uniform,
	// Ullman's algorithm stops in expected ≤ 10 iterations for k = 1. We
	// assert a generous envelope over several seeds.
	total := 0
	const trials = 40
	for seed := uint64(0); seed < trials; seed++ {
		lists := []*gradedset.List{
			(scoredb.Generator{N: 5000, M: 1, Law: scoredb.BoundedAbove{Max: 0.9}, Seed: seed}).MustGenerate().List(0),
			(scoredb.Generator{N: 5000, M: 1, Law: scoredb.Uniform{}, Seed: seed + 1000}).MustGenerate().List(0),
		}
		db, err := scoredb.New(lists)
		if err != nil {
			t.Fatal(err)
		}
		_, c := run(t, Ullman{}, db, agg.Min, 1)
		total += c.Sorted
	}
	mean := float64(total) / trials
	if mean > 40 {
		t.Errorf("mean sorted cost %v; expected O(10), far below N", mean)
	}
}

func TestHardQueryCostLinear(t *testing.T) {
	// Theorem 7.1: on Q ∧ ¬Q every correct algorithm needs Ω(N) accesses.
	for _, n := range []int{100, 400, 1600} {
		db, err := scoredb.HardQueryPair(n, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{A0{}, TA{}} {
			_, c := run(t, alg, db, agg.Min, 1)
			if c.Sum() < n/2 {
				t.Errorf("%s on hard query N=%d: cost %v below N/2", alg.Name(), n, c)
			}
		}
	}
}

func TestFilterMatchesExhaustiveScan(t *testing.T) {
	f := func(seed uint64) bool {
		laws := []scoredb.GradeLaw{scoredb.Uniform{}, scoredb.Discrete{Levels: 5}}
		db, err := (scoredb.Generator{N: 30 + int(seed%50), M: 2 + int(seed%2), Law: laws[seed%2], Seed: seed}).Generate()
		if err != nil {
			return false
		}
		fns := []agg.Func{agg.Min, agg.AlgebraicProduct, agg.ArithmeticMean}
		fn := fns[seed%3]
		theta := float64(seed%11) / 10
		lists := subsys.CountAll(sourcesOf(db))
		got, err := Filter(Background(), lists, fn, theta)
		if err != nil {
			return false
		}
		// Exhaustive reference.
		var want []gradedset.Entry
		for obj := 0; obj < db.N(); obj++ {
			gs, err := db.Grades(obj)
			if err != nil {
				return false
			}
			if g := fn.Apply(gs); g >= theta {
				want = append(want, gradedset.Entry{Object: obj, Grade: g})
			}
		}
		if len(got) != len(want) {
			t.Logf("seed=%d fn=%s theta=%v: got %d results, want %d", seed, fn.Name(), theta, len(got), len(want))
			return false
		}
		return gradedset.SameGradeMultiset(entriesOf(got), want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFilterValidation(t *testing.T) {
	db := scoredb.Generator{N: 10, M: 2, Seed: 41}.MustGenerate()
	lists := subsys.CountAll(sourcesOf(db))
	if _, err := Filter(Background(), lists, agg.Min, -0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := Filter(Background(), lists, agg.Min, 1.1); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := Filter(Background(), nil, agg.Min, 0.5); err == nil {
		t.Error("empty lists accepted")
	}
}

func TestFilterIsCheaperThanDrainForHighThresholds(t *testing.T) {
	db := scoredb.Generator{N: 5000, M: 2, Seed: 42}.MustGenerate()
	lists := subsys.CountAll(sourcesOf(db))
	if _, err := Filter(Background(), lists, agg.Min, 0.99); err != nil {
		t.Fatal(err)
	}
	if c := subsys.TotalCost(lists); c.Sum() >= 2000 {
		t.Errorf("filter at θ=0.99 cost %v; expected a small prefix scan", c)
	}
}

func TestPaginatorMatchesWideTopK(t *testing.T) {
	f := func(seed uint64) bool {
		db, err := (scoredb.Generator{N: 30 + int(seed%40), M: 2, Seed: seed}).Generate()
		if err != nil {
			return false
		}
		want, _ := run(t, NaiveSorted{}, db, agg.Min, 15)
		p, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{})
		if err != nil {
			return false
		}
		var all []Result
		for len(all) < 15 {
			page, err := p.NextPage(5)
			if err != nil {
				return false
			}
			if len(page) == 0 {
				break
			}
			all = append(all, page...)
		}
		if p.count != len(all) {
			return false
		}
		// No duplicates across pages.
		seen := make(map[int]bool)
		for _, r := range all {
			if seen[r.Object] {
				return false
			}
			seen[r.Object] = true
		}
		return gradedset.SameGradeMultiset(entriesOf(all[:15]), entriesOf(want), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPaginatorCostIsIncremental(t *testing.T) {
	// Continuing where we left off: two pages of k over the same counted
	// lists cost no more than one run of 2k from scratch.
	db := scoredb.Generator{N: 5000, M: 2, Seed: 43}.MustGenerate()

	p, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NextPage(10); err != nil {
		t.Fatal(err)
	}
	costAfterFirst := p.Cost().Sum()
	if _, err := p.NextPage(10); err != nil {
		t.Fatal(err)
	}
	costAfterSecond := p.Cost().Sum()

	// Reference points: one run of k=10 and one of k=20, each from
	// scratch (what restarting without the cache would cost).
	fresh10 := subsys.CountAll(sourcesOf(db))
	if _, err := (A0{}).TopK(Background(), fresh10, agg.Min, 10); err != nil {
		t.Fatal(err)
	}
	scratch10 := subsys.TotalCost(fresh10).Sum()
	fresh20 := subsys.CountAll(sourcesOf(db))
	if _, err := (A0{}).TopK(Background(), fresh20, agg.Min, 20); err != nil {
		t.Fatal(err)
	}
	scratch20 := subsys.TotalCost(fresh20).Sum()

	// Resuming must beat starting over (the sum of independent runs). It
	// may exceed the single k=20 run by a little — objects probed eagerly
	// for page one can later surface in both prefixes — but only a little.
	if costAfterSecond >= scratch10+scratch20 {
		t.Errorf("paginated cost %d does not beat restart cost %d+%d",
			costAfterSecond, scratch10, scratch20)
	}
	if costAfterSecond > scratch20+scratch10/2 {
		t.Errorf("paginated cost %d far above from-scratch k=20 cost %d", costAfterSecond, scratch20)
	}
	if costAfterFirst >= costAfterSecond {
		t.Errorf("second page cost nothing: %d then %d", costAfterFirst, costAfterSecond)
	}
}

func TestPaginatorEdges(t *testing.T) {
	db := scoredb.Generator{N: 7, M: 2, Seed: 44}.MustGenerate()
	p, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NextPage(0); err == nil {
		t.Error("page size 0 accepted")
	}
	page, err := p.NextPage(10) // larger than N
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 7 {
		t.Errorf("page = %d results, want all 7", len(page))
	}
	page, err = p.NextPage(3) // past the end
	if err != nil || page != nil {
		t.Errorf("exhausted paginator returned %v, %v", page, err)
	}
}

func TestEvaluateReportsCost(t *testing.T) {
	db := scoredb.Generator{N: 100, M: 2, Seed: 45}.MustGenerate()
	res, c, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if c.Sorted <= 0 {
		t.Errorf("cost = %v; expected sorted accesses", c)
	}
	if c.Sum() > 2*100 {
		t.Errorf("cost %v exceeds the trivial bound mN", c)
	}
}

// Sanity for the probabilistic claim of Theorem 5.3 at small scale: the
// sorted depth per list stays near √(Nk) for m=2. This is a loose bound
// (c=6) so the test is stable across seeds.
func TestA0SortedDepthNearSqrtNK(t *testing.T) {
	const n, k = 10000, 5
	for seed := uint64(0); seed < 10; seed++ {
		db := scoredb.Generator{N: n, M: 2, Seed: seed}.MustGenerate()
		_, c := run(t, A0{}, db, agg.Min, k)
		perList := float64(c.Sorted) / 2
		bound := 6 * math.Sqrt(float64(n*k))
		if perList > bound {
			t.Errorf("seed %d: depth %v exceeds 6√(Nk)=%v", seed, perList, bound)
		}
	}
}
