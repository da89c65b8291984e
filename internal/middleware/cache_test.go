package middleware

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/query"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// genMutableStore builds a cached engine and an uncached oracle engine
// over the SAME mutable subsystems, so every grade update is visible to
// both and the oracle always recomputes from live data.
func genMutableStore(t testing.TB, n, m int, seed uint64, capacity int) (*Middleware, *Middleware, []*subsys.Mutable, *scoredb.Database) {
	t.Helper()
	db := scoredb.Generator{N: n, M: m, Seed: seed}.MustGenerate()
	muts := make([]*subsys.Mutable, m)
	subsystems := make([]subsys.Subsystem, m)
	for i := 0; i < m; i++ {
		mu := subsys.NewMutable(attrName(i), n, subsys.DefaultJournalDepth)
		mu.Set("*", db.List(i))
		muts[i] = mu
		subsystems[i] = mu
	}
	cached, err := New(subsystems, WithCache(capacity))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	return cached, oracle, muts, db
}

// sameReport compares every section a hit promises to reproduce
// bit-identically: results, Section 5 tallies and their per-list
// breakdown.
func sameReport(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("%s: results differ:\n got %v\nwant %v", label, got.Results, want.Results)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost = %+v, want %+v", label, got.Cost, want.Cost)
	}
	if !reflect.DeepEqual(got.PerList, want.PerList) {
		t.Fatalf("%s: per-list tallies differ", label)
	}
}

// samePrefetch additionally compares the pipeline stats — meaningful
// only between a hit and the very computation it cached: against a
// fresh recompute the adaptive depths and stalls are timing-dependent.
func samePrefetch(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Prefetch, want.Prefetch) {
		t.Fatalf("%s: pipeline stats differ", label)
	}
}

func sameResults(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("%s: results differ:\n got %v\nwant %v", label, got.Results, want.Results)
	}
}

// TestCacheHitBitIdentity pins the equivalence contract across every
// executor shape: the second identical request is a hit
// and its report is bit-identical to both the first computation and a
// fresh evaluation by an uncached engine.
func TestCacheHitBitIdentity(t *testing.T) {
	shapes := []struct {
		name string
		opts []QueryOption
	}{
		{"serial", nil},
		{"concurrent", []QueryOption{WithParallelism(4)}},
		{"pipelined", []QueryOption{WithPrefetch(8)}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			eng, oracle, _, _ := genMutableStore(t, 900, 3, 41, 0)
			q := genConj(3)
			opts := append([]QueryOption{TopN(12)}, sh.opts...)

			first, err := eng.Query(context.Background(), q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if first.Cache == nil || first.Cache.Hit {
				t.Fatalf("first query Cache = %+v, want recorded miss", first.Cache)
			}
			second, err := eng.Query(context.Background(), q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if second.Cache == nil || !second.Cache.Hit {
				t.Fatalf("second query Cache = %+v, want hit", second.Cache)
			}
			if second.Cache.SavedCost != first.Cost {
				t.Fatalf("SavedCost = %+v, want the original spend %+v", second.Cache.SavedCost, first.Cost)
			}
			sameReport(t, "hit vs original", second, first)
			samePrefetch(t, "hit vs original", second, first)

			fresh, err := oracle.Query(context.Background(), q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "hit vs uncached recompute", second, fresh)
			if (second.Prefetch == nil) != (fresh.Prefetch == nil) {
				t.Fatalf("pipeline stats presence differs: hit %v, fresh %v", second.Prefetch != nil, fresh.Prefetch != nil)
			}

			st, ok := eng.CacheStats()
			if !ok || st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
				t.Fatalf("stats = %+v (ok=%v)", st, ok)
			}
		})
	}
}

// TestCacheUpdateSurvival drives the revalidation rules end-to-end
// through mutable subsystems: updates that provably cannot disturb the
// cached top k leave it serving hits, a raise that could is repaired,
// updates that leave nothing to repair from evict it, and in every case
// the served answer equals a fresh recompute over the live data.
func TestCacheUpdateSurvival(t *testing.T) {
	eng, oracle, muts, db := genMutableStore(t, 600, 2, 47, 0)
	q := genConj(2)
	ctx := context.Background()

	warm := func() *Report {
		t.Helper()
		rep, err := eng.Query(ctx, q, TopN(10))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	requery := func(wantHit bool, label string) *Report {
		t.Helper()
		rep, err := eng.Query(ctx, q, TopN(10))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cache == nil || rep.Cache.Hit != wantHit {
			t.Fatalf("%s: Cache = %+v, want hit=%v", label, rep.Cache, wantHit)
		}
		fresh, err := oracle.Query(ctx, q, TopN(10))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label+" vs recompute", rep, fresh)
		return rep
	}

	base := warm()
	members := make(map[int]bool, len(base.Results))
	for _, r := range base.Results {
		members[r.Object] = true
	}
	kth := base.Results[len(base.Results)-1].Grade
	nonMember := -1
	for obj := 0; obj < db.N(); obj++ {
		if !members[obj] {
			nonMember = obj
			break
		}
	}
	if nonMember < 0 {
		t.Fatal("no non-member object")
	}

	// Lowering a non-member cannot disturb the top k: still a hit.
	old, err := db.List(0).Grade(nonMember)
	if err != nil {
		t.Fatal(err)
	}
	if err := muts[0].UpdateGrade("*", nonMember, old/2); err != nil {
		t.Fatal(err)
	}
	requery(true, "non-member lower")

	// Raising it while the aggregate bound stays strictly below the
	// k-th grade (min law: the raised grade itself): still a hit.
	if err := muts[0].UpdateGrade("*", nonMember, kth*0.9); err != nil {
		t.Fatal(err)
	}
	requery(true, "non-member raise below kth")

	// Raising it past the k-th grade could displace a member: a miss,
	// answered by a repair.
	if err := muts[0].UpdateGrade("*", nonMember, (kth+1)/2); err != nil {
		t.Fatal(err)
	}
	if rep := requery(false, "non-member raise above kth"); !rep.Cache.Repaired || rep.Cost.Sorted != 0 {
		t.Fatalf("non-member raise above kth: Cache = %+v, cost %+v; want a repair with no sorted access", rep.Cache, rep.Cost)
	}

	// A member's grade moving always evicts.
	warm()
	member := base.Results[0].Object
	mold, err := db.List(1).Grade(member)
	if err != nil {
		t.Fatal(err)
	}
	if err := muts[1].UpdateGrade("*", member, mold*0.99); err != nil {
		t.Fatal(err)
	}
	requery(false, "member update")

	// Set replaces the list wholesale and poisons the journal: the next
	// lookup cannot replay and must recompute.
	warm()
	muts[0].Set("*", db.List(0))
	requery(false, "journal poisoned by Set")

	st, _ := eng.CacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want recorded invalidations", st)
	}
}

// TestCacheSkipsUncacheableRequests: budgeted, degradable, and
// non-monotone evaluations bypass the cache entirely — no stores, no
// Report.Cache.
func TestCacheSkipsUncacheableRequests(t *testing.T) {
	eng, _, _, _ := genMutableStore(t, 400, 2, 53, 0)
	ctx := context.Background()
	cases := []struct {
		name string
		q    query.Node
		opts []QueryOption
	}{
		{"budgeted", genConj(2), []QueryOption{TopN(5), WithAccessBudget(1e6)}},
		{"degradable", genConj(2), []QueryOption{TopN(5), WithDegradedLists(1)}},
		{"non-monotone query", query.Not{Child: query.Atomic{Attr: attrName(0), Target: "*"}}, []QueryOption{TopN(5)}},
	}
	for _, tc := range cases {
		rep, err := eng.Query(ctx, tc.q, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Cache != nil {
			t.Errorf("%s: Report.Cache = %+v, want nil", tc.name, rep.Cache)
		}
	}
	if n := eng.CacheLen(); n != 0 {
		t.Fatalf("cache holds %d entries after uncacheable requests", n)
	}
	if st, _ := eng.CacheStats(); st.Stores != 0 {
		t.Fatalf("stats = %+v, want zero stores", st)
	}
}

// TestCacheEngineLRUBound: the engine-level cache honors its entry
// bound, and Invalidate empties it.
func TestCacheEngineLRUBound(t *testing.T) {
	eng, _, _, _ := genMutableStore(t, 300, 2, 59, 2)
	ctx := context.Background()
	q := genConj(2)
	for _, k := range []int{3, 5, 7} {
		if _, err := eng.Query(ctx, q, TopN(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.CacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
	// The oldest key (k=3) was evicted; k=7 is still cached.
	rep, err := eng.Query(ctx, q, TopN(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil || !rep.Cache.Hit {
		t.Fatalf("recent key not cached: %+v", rep.Cache)
	}
	rep, err = eng.Query(ctx, q, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil || rep.Cache.Hit {
		t.Fatalf("evicted key served a hit: %+v", rep.Cache)
	}

	eng.Invalidate()
	if n := eng.CacheLen(); n != 0 {
		t.Fatalf("cache holds %d entries after Invalidate", n)
	}
	rep, err = eng.Query(ctx, q, TopN(7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil || rep.Cache.Hit {
		t.Fatalf("hit after Invalidate: %+v", rep.Cache)
	}
}

// TestCacheStreamSnapshotIsolation: a streaming cursor opened before an
// epoch bump keeps paging over the snapshot its sources were
// materialized from — the update neither corrupts the stream nor
// sneaks cached pages in.
func TestCacheStreamSnapshotIsolation(t *testing.T) {
	eng, oracle, muts, db := genMutableStore(t, 500, 2, 61, 0)
	ctx := context.Background()
	q := genConj(2)

	const total = 40
	want, err := oracle.Query(ctx, q, TopN(total))
	if err != nil {
		t.Fatal(err)
	}

	var got []core.Result
	bumped := false
	for r, err := range eng.Results(ctx, q, TopN(8)) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		if !bumped {
			// Mid-stream: move a grade on every list.
			for i, mu := range muts {
				g, gerr := db.List(i).Grade(got[0].Object)
				if gerr != nil {
					t.Fatal(gerr)
				}
				if uerr := mu.UpdateGrade("*", got[0].Object, g/2); uerr != nil {
					t.Fatal(uerr)
				}
			}
			bumped = true
		}
		if len(got) == total {
			break
		}
	}
	if !reflect.DeepEqual(got, want.Results) {
		t.Fatalf("stream diverged from its snapshot:\n got %v\nwant %v", got, want.Results)
	}
}

// TestCacheConcurrentQueryUpdate hammers a cached engine with
// concurrent queries, grade updates, and invalidations; run under
// -race it pins the locking, and every served answer must be
// well-formed (sorted descending, within k).
func TestCacheConcurrentQueryUpdate(t *testing.T) {
	eng, _, muts, db := genMutableStore(t, 400, 3, 67, 8)
	ctx := context.Background()
	q := genConj(3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for i := 0; i < 60; i++ {
				k := 1 + rng.IntN(12)
				rep, err := eng.Query(ctx, q, TopN(k))
				if err != nil {
					t.Error(err)
					return
				}
				if len(rep.Results) > k {
					t.Errorf("%d results for k=%d", len(rep.Results), k)
					return
				}
				for j := 1; j < len(rep.Results); j++ {
					if rep.Results[j].Grade > rep.Results[j-1].Grade {
						t.Error("results out of order")
						return
					}
				}
			}
		}(uint64(w))
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 2))
			for i := 0; i < 60; i++ {
				l := rng.IntN(len(muts))
				obj := rng.IntN(db.N())
				if err := muts[l].UpdateGrade("*", obj, rng.Float64()); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 19 {
					eng.Invalidate()
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	st, _ := eng.CacheStats()
	if st.Hits+st.Misses != 4*60 {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, 4*60)
	}
}

// TestCacheBehindWrappers: a subsystem wrapper must not hide a mutable
// subsystem's versions from the result cache. Each wrapped engine runs
// the same script of queries, grade updates that do and do not reach
// the cached k-th grade, and one Set as an engine over the bare lists,
// and must agree with it step by step: answers, hit or miss, the epoch
// the entry is stamped with, and the cache's counters. A wrapper that
// reads as immutable (epoch 0) keeps serving the answer it cached first.
func TestCacheBehindWrappers(t *testing.T) {
	const n, m, k = 600, 2, 10
	wrappers := []struct {
		name string
		wrap func(subsys.Subsystem) subsys.Subsystem
	}{
		{"bare", func(s subsys.Subsystem) subsys.Subsystem { return s }},
		{"WithLatency", func(s subsys.Subsystem) subsys.Subsystem { return subsys.WithLatency(s, 0) }},
		{"WithFaults", func(s subsys.Subsystem) subsys.Subsystem { return subsys.WithFaults(s, subsys.FaultPlan{Seed: 3}) }},
		{"WithResilience", func(s subsys.Subsystem) subsys.Subsystem {
			return subsys.WithResilience(s, subsys.Policy{MaxRetries: 1})
		}},
		{"WithResilience(WithLatency(WithFaults))", func(s subsys.Subsystem) subsys.Subsystem {
			return subsys.WithResilience(subsys.WithLatency(subsys.WithFaults(s, subsys.FaultPlan{Seed: 3}), 0), subsys.Policy{MaxRetries: 1})
		}},
	}
	db := scoredb.Generator{N: n, M: m, Seed: 53}.MustGenerate()
	q := genConj(m)
	ctx := context.Background()

	type step struct {
		results []core.Result
		cache   CacheInfo
		stats   CacheStats
	}
	// script runs the whole interleaving against one engine and returns
	// what each query observed.
	script := func(t *testing.T, wrap func(subsys.Subsystem) subsys.Subsystem) []step {
		muts := make([]*subsys.Mutable, m)
		subsystems := make([]subsys.Subsystem, m)
		for i := range muts {
			muts[i] = subsys.NewMutable(attrName(i), n, subsys.DefaultJournalDepth)
			muts[i].Set("*", db.List(i))
			subsystems[i] = wrap(muts[i])
		}
		eng, err := New(subsystems, WithCache(0))
		if err != nil {
			t.Fatal(err)
		}
		var steps []step
		ask := func() *Report {
			t.Helper()
			rep, err := eng.Query(ctx, q, TopN(k))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cache == nil {
				t.Fatal("no Report.Cache on a cacheable query")
			}
			st, _ := eng.CacheStats()
			steps = append(steps, step{rep.Results, *rep.Cache, st})
			return rep
		}
		update := func(list, obj int, g float64) {
			t.Helper()
			if err := muts[list].UpdateGrade("*", obj, g); err != nil {
				t.Fatal(err)
			}
		}

		first := ask()
		ask()
		member := make(map[int]bool, k)
		for _, r := range first.Results {
			member[r.Object] = true
		}
		outsider := 0
		for member[outsider] {
			outsider++
		}
		kth := first.Results[k-1].Grade
		update(0, outsider, kth/2) // stays below the k-th grade: the entry survives
		ask()
		update(0, outsider, 1) // both lists lift it to the top: the entry goes
		update(1, outsider, 1)
		ask()
		ask()
		update(1, first.Results[0].Object, kth/4) // a member sinks
		ask()
		muts[0].Set("*", db.List(0)) // the journal cannot describe this
		ask()
		ask()
		return steps
	}

	var want []step
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			got := script(t, w.wrap)
			if want == nil {
				// The bare engine: check the script exercises what it says.
				hits := []bool{false, true, true, false, true, false, false, true}
				for i, s := range got {
					if s.cache.Hit != hits[i] {
						t.Fatalf("bare engine, query %d: hit = %t, want %t", i, s.cache.Hit, hits[i])
					}
				}
				if got[3].results[0].Object == got[0].results[0].Object || got[3].results[0].Grade != 1 {
					t.Fatalf("the lifted object did not take the top: %v", got[3].results[0])
				}
				want = got
				return
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].results, want[i].results) {
					t.Fatalf("query %d: results differ from the bare engine's:\n got %v\nwant %v", i, got[i].results, want[i].results)
				}
				if got[i].cache != want[i].cache {
					t.Fatalf("query %d: Cache = %+v, bare engine's %+v", i, got[i].cache, want[i].cache)
				}
				if got[i].stats != want[i].stats {
					t.Fatalf("query %d: stats = %+v, bare engine's %+v", i, got[i].stats, want[i].stats)
				}
			}
		})
	}
}

// hookedMutable is a mutable subsystem that counts the sources asked of
// it and, once armed, runs a hook inside its next Query or hands out
// sources that fail every access.
type hookedMutable struct {
	*subsys.Mutable
	queries atomic.Int64
	mu      sync.Mutex
	hook    func()
	faulty  bool
}

func (h *hookedMutable) Query(target string) (subsys.Source, error) {
	h.queries.Add(1)
	h.mu.Lock()
	hook, faulty := h.hook, h.faulty
	h.hook = nil
	h.mu.Unlock()
	if hook != nil {
		hook()
	}
	src, err := h.Mutable.Query(target)
	if err != nil || !faulty {
		return src, err
	}
	return subsys.NewFaultSource(src, subsys.FaultPlan{Rate: 1, Phase: subsys.FaultBoth}), nil
}

// hookedStore is genMutableStore over hookedMutable subsystems; the
// oracle reads the same lists without the hooks.
func hookedStore(t *testing.T, n, m int, seed uint64) (*Middleware, *Middleware, []*hookedMutable) {
	t.Helper()
	_, _, muts, _ := genMutableStore(t, n, m, seed, 0)
	hs := make([]*hookedMutable, m)
	hooked := make([]subsys.Subsystem, m)
	bare := make([]subsys.Subsystem, m)
	for i, mu := range muts {
		hs[i] = &hookedMutable{Mutable: mu}
		hooked[i], bare[i] = hs[i], mu
	}
	eng, err := New(hooked, WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := New(bare)
	if err != nil {
		t.Fatal(err)
	}
	return eng, oracle, hs
}

// sourceCalls is how many sources the engine has asked of hs.
func sourceCalls(hs []*hookedMutable) int64 {
	var n int64
	for _, h := range hs {
		n += h.queries.Load()
	}
	return n
}

// gradeOf reads obj's current grade in h's list.
func gradeOf(t *testing.T, h *hookedMutable, obj int) float64 {
	t.Helper()
	src, err := h.Mutable.Query("*")
	if err != nil {
		t.Fatal(err)
	}
	return src.Grade(obj)
}

// firstOutsider is the smallest object id not in the answer.
func firstOutsider(rep *Report) int {
	in := make(map[int]bool, len(rep.Results))
	for _, r := range rep.Results {
		in[r.Object] = true
	}
	o := 0
	for in[o] {
		o++
	}
	return o
}

// askBoth runs q on the cached engine and the oracle under the same
// options and checks the answers agree.
func askBoth(t *testing.T, label string, eng, oracle *Middleware, q query.Node, opts ...QueryOption) *Report {
	t.Helper()
	ctx := context.Background()
	rep, err := eng.Query(ctx, q, opts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh, err := oracle.Query(ctx, q, opts...)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	sameResults(t, label+" vs recompute", rep, fresh)
	if rep.Cache == nil {
		t.Fatalf("%s: no Report.Cache on a cacheable query", label)
	}
	return rep
}

// TestCacheRepairSingleRaise: raising one grade of an outsider past the
// k-th grade of an m = 3 conjunction is repaired by reading its other
// two grades — Cost{0, 2}, one random access on each of the lists the
// journal did not speak for — with the answer of a recompute; the next
// lookup is a hit that asks no source for anything, serving the
// repaired answer with the original computation's tallies.
func TestCacheRepairSingleRaise(t *testing.T) {
	const k = 10
	eng, oracle, hs := hookedStore(t, 900, 3, 71)
	q := genConj(3)
	first := askBoth(t, "warm", eng, oracle, q, TopN(k))

	// The outsider with the best grades on lists 1 and 2 enters the
	// answer once its grade on list 0 is 1.
	best, bestGrade := -1, -1.0
	in := make(map[int]bool, k)
	for _, r := range first.Results {
		in[r.Object] = true
	}
	for o := 0; o < 900; o++ {
		if g := min(gradeOf(t, hs[1], o), gradeOf(t, hs[2], o)); !in[o] && g > bestGrade {
			best, bestGrade = o, g
		}
	}
	if bestGrade <= first.Results[k-1].Grade {
		t.Fatalf("no outsider can enter the answer (best %v)", bestGrade)
	}
	if err := hs[0].UpdateGrade("*", best, 1); err != nil {
		t.Fatal(err)
	}
	rep := askBoth(t, "single raise", eng, oracle, q, TopN(k))
	if !rep.Cache.Repaired || rep.Cache.Hit {
		t.Fatalf("Cache = %+v, want a repair", rep.Cache)
	}
	if want := (cost.Cost{Sorted: 0, Random: 2}); rep.Cost != want {
		t.Fatalf("repair cost %+v, want %+v", rep.Cost, want)
	}
	if want := []cost.Cost{{}, {Random: 1}, {Random: 1}}; !reflect.DeepEqual(rep.PerList, want) {
		t.Fatalf("repair per-list cost %+v, want %+v", rep.PerList, want)
	}
	if reflect.DeepEqual(rep.Results, first.Results) {
		t.Fatal("the raise did not change the answer")
	}

	before := sourceCalls(hs)
	hit := askBoth(t, "after the repair", eng, oracle, q, TopN(k))
	if !hit.Cache.Hit || hit.Cache.Repaired {
		t.Fatalf("Cache = %+v, want a plain hit", hit.Cache)
	}
	if n := sourceCalls(hs) - before; n != 0 {
		t.Fatalf("the hit asked for %d sources", n)
	}
	if hit.Cost != first.Cost || hit.Cache.SavedCost != first.Cost {
		t.Fatalf("hit cost %+v, saved %+v; want the original computation's %+v", hit.Cost, hit.Cache.SavedCost, first.Cost)
	}
	st, _ := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Repairs != 1 || st.Stores != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheRepairMovesMember: a raised member is re-graded in place and
// moves up the answer.
func TestCacheRepairMovesMember(t *testing.T) {
	const k = 10
	eng, oracle, hs := hookedStore(t, 900, 3, 73)
	q := genConj(3)
	first := askBoth(t, "warm", eng, oracle, q, TopN(k))

	// Find a member whose grade, with its lowest list raised to 1,
	// passes the member ranked just above it.
	rank, list := -1, -1
	for i := 1; i < k && rank < 0; i++ {
		obj := first.Results[i].Object
		gs := []float64{gradeOf(t, hs[0], obj), gradeOf(t, hs[1], obj), gradeOf(t, hs[2], obj)}
		low := 0
		for l := range gs {
			if gs[l] < gs[low] {
				low = l
			}
		}
		gs[low] = 1
		if min(gs[0], gs[1], gs[2]) > first.Results[i-1].Grade {
			rank, list = i, low
		}
	}
	if rank < 0 {
		t.Fatal("no member can move up")
	}
	obj := first.Results[rank].Object
	if err := hs[list].UpdateGrade("*", obj, 1); err != nil {
		t.Fatal(err)
	}
	rep := askBoth(t, "member raise", eng, oracle, q, TopN(k))
	if !rep.Cache.Repaired || rep.Cost != (cost.Cost{Random: 2}) {
		t.Fatalf("Cache = %+v, cost %+v; want a repair at Cost{0, 2}", rep.Cache, rep.Cost)
	}
	if rep.Results[rank-1].Object != obj {
		t.Fatalf("member %d did not move up from rank %d: %v", obj, rank, rep.Results)
	}
}

// TestCacheRepairFaultFallsBack: a probe that fails drops the entry and
// the request recomputes; the caller sees the recompute's typed error —
// a sorted access, where the probe only reads by random access — never
// the probe's.
func TestCacheRepairFaultFallsBack(t *testing.T) {
	eng, oracle, hs := hookedStore(t, 600, 3, 79)
	q := genConj(3)
	first := askBoth(t, "warm", eng, oracle, q, TopN(10))
	if err := hs[0].UpdateGrade("*", firstOutsider(first), 1); err != nil {
		t.Fatal(err)
	}
	hs[2].mu.Lock()
	hs[2].faulty = true
	hs[2].mu.Unlock()
	rep, err := eng.Query(context.Background(), q, TopN(10))
	var se *subsys.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("error %v, want a *subsys.SourceError", err)
	}
	if se.Random || se.List != 2 {
		t.Fatalf("error %v is not the recompute's sorted access on list 2", err)
	}
	if rep == nil || rep.Results != nil || rep.Cache != nil {
		t.Fatalf("report %+v, want the recompute's partial report", rep)
	}
	st, _ := eng.CacheStats()
	if st.Repairs != 0 || st.Invalidations != 1 || eng.CacheLen() != 0 {
		t.Fatalf("stats = %+v, %d live; want the entry dropped and no repair", st, eng.CacheLen())
	}
}

// TestCacheRepairUnderShapes: a repair runs the same under a pipelined
// request shape, and its report has no pipeline section — the probe
// reads no sorted list.
func TestCacheRepairUnderShapes(t *testing.T) {
	for _, sh := range []struct {
		name string
		opts []QueryOption
	}{
		{"pipelined", []QueryOption{WithPrefetch(8)}},
		{"concurrent", []QueryOption{WithParallelism(4)}},
	} {
		t.Run(sh.name, func(t *testing.T) {
			eng, oracle, hs := hookedStore(t, 900, 3, 83)
			q := genConj(3)
			opts := append([]QueryOption{TopN(12)}, sh.opts...)
			first := askBoth(t, "warm", eng, oracle, q, opts...)
			if err := hs[1].UpdateGrade("*", firstOutsider(first), 1); err != nil {
				t.Fatal(err)
			}
			rep := askBoth(t, "raise", eng, oracle, q, opts...)
			if !rep.Cache.Repaired || rep.Cost != (cost.Cost{Random: 2}) {
				t.Fatalf("Cache = %+v, cost %+v; want a repair at Cost{0, 2}", rep.Cache, rep.Cost)
			}
			if rep.Prefetch != nil {
				t.Fatalf("repaired report carries a pipeline section: %+v", rep)
			}
			hit := askBoth(t, "after the repair", eng, oracle, q, opts...)
			if !hit.Cache.Hit {
				t.Fatalf("Cache = %+v, want a hit", hit.Cache)
			}
			sameReport(t, "hit vs the original computation's tallies", &Report{Results: hit.Results, Cost: first.Cost, PerList: first.PerList}, hit)
		})
	}
}

// TestCacheRepairRacesUpdate: an update that lands between a repair's
// epoch snapshot and its probe — applied by the subsystem inside the
// Query the repair materializes its sources with — leaves the repaired
// entry stamped behind it, so the next lookup replays it and agrees with
// a recompute.
func TestCacheRepairRacesUpdate(t *testing.T) {
	const k = 10
	eng, oracle, hs := hookedStore(t, 600, 3, 89)
	q := genConj(3)
	first := askBoth(t, "warm", eng, oracle, q, TopN(k))
	x := firstOutsider(first)
	// x's grades on lists 0 and 2 are journaled; list 1 is probed, and
	// the update racing the probe lifts it there, into the answer's top.
	if err := hs[0].UpdateGrade("*", x, 0.9995); err != nil {
		t.Fatal(err)
	}
	if err := hs[2].UpdateGrade("*", x, 0.998); err != nil {
		t.Fatal(err)
	}
	epochs := func() uint64 {
		var sum uint64
		for _, h := range hs {
			sum += h.Epoch()
		}
		return sum
	}
	stamp := epochs()
	hs[1].mu.Lock()
	hs[1].hook = func() {
		if err := hs[1].UpdateGrade("*", x, 0.997); err != nil {
			t.Error(err)
		}
	}
	hs[1].mu.Unlock()

	rep, err := eng.Query(context.Background(), q, TopN(k))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cache.Repaired || rep.Cost != (cost.Cost{Random: 1}) {
		t.Fatalf("Cache = %+v, cost %+v; want a repair reading one grade", rep.Cache, rep.Cost)
	}
	if rep.Cache.Epoch != stamp || epochs() != stamp+1 {
		t.Fatalf("repaired entry stamped at %d, data at %d; want it behind the racing update, at %d", rep.Cache.Epoch, epochs(), stamp)
	}
	if rep.Results[0].Object != x {
		t.Fatalf("the probe did not read the raced grade: %v", rep.Results)
	}
	// x is a member now, and the replayed update raised it: a repair
	// again, reading x's two grades the new entry's journal lacks.
	next := askBoth(t, "after the race", eng, oracle, q, TopN(k))
	if !next.Cache.Repaired || next.Cache.Epoch != stamp+1 || next.Cost != (cost.Cost{Random: 2}) {
		t.Fatalf("Cache = %+v, cost %+v; want a repair at the current epochs", next.Cache, next.Cost)
	}
	if hit := askBoth(t, "settled", eng, oracle, q, TopN(k)); !hit.Cache.Hit {
		t.Fatalf("Cache = %+v, want a hit", hit.Cache)
	}
}
