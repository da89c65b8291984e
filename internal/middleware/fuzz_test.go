package middleware

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/query"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// FuzzCacheEquivalence interleaves random grade updates, queries across
// executor shapes, explicit invalidations, and wholesale list
// replacements (journal poison) on a cached engine, checking every
// answer against an uncached oracle engine over the SAME mutable
// subsystems. Half the queries repeat the previous one, so entries are
// revisited after the updates in between. Grades are continuous
// (generator and updates), so ties — the one case where the cache
// conservatively recomputes rather than serving a still-bit-identical
// answer — have probability zero, and hit, repair or recompute, the
// results must match the recompute exactly. A recompute pays the
// oracle's tallies; a repair pays no sorted access and at most a−1
// random ones per raised object of an a-atom query. Over three or more
// lists, some queries are the order-statistic form (the OR of the ANDs
// of every j-subset of the lists), so OrderStat runs under hit, repair
// and recompute too.
func FuzzCacheEquivalence(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1996, 0xfa61} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0xcafe))
		n := 60 + rng.IntN(140)
		m := 2 + rng.IntN(3)
		depths := []int{4, 32, subsys.DefaultJournalDepth}
		depth := depths[rng.IntN(len(depths))]
		db := scoredb.Generator{N: n, M: m, Seed: seed}.MustGenerate()

		muts := make([]*subsys.Mutable, m)
		subsystems := make([]subsys.Subsystem, m)
		names := make([]string, m) // the atoms, as the query syntax spells them
		for i := 0; i < m; i++ {
			names[i] = attrName(i) + ` = "*"`
			mu := subsys.NewMutable(attrName(i), n, depth)
			mu.Set("*", db.List(i))
			muts[i] = mu
			subsystems[i] = mu
		}
		eng, err := New(subsystems, WithCache(1+rng.IntN(8)))
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := New(subsystems)
		if err != nil {
			t.Fatal(err)
		}

		shapes := [][]QueryOption{
			nil,
			{WithParallelism(3)},
			{WithShards(3)},
			{WithPrefetch(4)},
		}
		ctx := context.Background()
		queries, hits, repairs, updates := 0, 0, 0, 0
		var q query.Node
		var atoms int // in q
		var opts []QueryOption
		for step := 0; step < 60; step++ {
			switch rng.IntN(10) {
			case 0:
				eng.Invalidate()
			case 1:
				l := rng.IntN(m)
				muts[l].Set("*", db.List(l))
			case 2, 3, 4:
				l := rng.IntN(m)
				if err := muts[l].UpdateGrade("*", rng.IntN(n), rng.Float64()); err != nil {
					t.Fatalf("step %d: update: %v", step, err)
				}
				updates++
			default:
				if q == nil || rng.IntN(2) == 0 {
					if m >= 3 && rng.IntN(3) == 0 {
						atoms = m
						q = query.MustParse(orderStatForm(names, 2+rng.IntN(m-2), 0))
					} else {
						atoms = 1 + rng.IntN(m)
						q = query.MustParse(orderStatForm(names[:atoms], atoms, 0)) // their conjunction
					}
					opts = append([]QueryOption{TopN(1 + rng.IntN(16))}, shapes[rng.IntN(len(shapes))]...)
				}

				got, err := eng.Query(ctx, q, opts...)
				if err != nil {
					t.Fatalf("step %d: cached query: %v", step, err)
				}
				want, err := oracle.Query(ctx, q, opts...)
				if err != nil {
					t.Fatalf("step %d: oracle query: %v", step, err)
				}
				if got.Cache == nil {
					t.Fatalf("step %d: cacheable query carried no Cache info", step)
				}
				_, form := q.(query.Or)
				if _, plan := want.Plan.Algorithm.(core.OrderStat); plan != form {
					t.Fatalf("step %d: %v planned %s", step, q, want.Plan.Algorithm.Name())
				}
				if !reflect.DeepEqual(got.Results, want.Results) {
					t.Fatalf("step %d (%+v): results diverged from recompute:\n got %v\nwant %v",
						step, *got.Cache, got.Results, want.Results)
				}
				queries++
				switch {
				case got.Cache.Hit && got.Cache.Repaired:
					t.Fatalf("step %d: Cache = %+v, a hit and a repair", step, *got.Cache)
				case got.Cache.Hit:
					hits++
				case got.Cache.Repaired:
					repairs++
					var sum cost.Cost
					for _, c := range got.PerList {
						sum = sum.Add(c)
					}
					if got.Cost.Sorted != 0 || got.Cost.Random > (atoms-1)*updates || sum != got.Cost {
						t.Fatalf("step %d: repair cost %+v (per list %+v) after %d updates of a %d-atom query", step, got.Cost, got.PerList, updates, atoms)
					}
				case got.Cost != want.Cost:
					t.Fatalf("step %d: recompute cost %+v != oracle cost %+v", step, got.Cost, want.Cost)
				}
			}
		}
		st, ok := eng.CacheStats()
		if !ok || st.Hits+st.Misses != uint64(queries) || st.Repairs > st.Misses {
			t.Fatalf("stats %+v incoherent with %d lookups", st, queries)
		}
		if st.Hits != uint64(hits) || st.Repairs != uint64(repairs) {
			t.Fatalf("stats count %d hits and %d repairs, reports said %d and %d", st.Hits, st.Repairs, hits, repairs)
		}
	})
}
