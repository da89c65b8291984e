package fuzzydb_test

// The engineering invariants of the access tallies — not claims of the
// paper, so not in EXPERIMENTS.md — as one golden table,
// testdata/tallies.golden: per workload the exact Section 5 tally S + R,
// summed over the workload's databases, under each configuration that
// may move it, and in code the equalities for each configuration that
// must not.
//
// This replaces the 86 metrics a bespoke comparer used to read off the
// benchmarks' printed (and so rounded) output and gate against a
// committed JSON snapshot (git log has both). Of those:
//
//   - 8 were the serial tallies of E1/N=4096…262144 and E2/m=2…5: the
//     "serial" rows (a row is the sum over four databases, so 4× the old
//     mean, exactly).
//   - 16 were the same workloads under an overlapping executor at P = m
//     (_Parallel) and through the zero-rate fault stack (_Faulty). They must equal the
//     serial tally: asserted per database below, no rows.
//   - 16 were the even and the weighted 4-shard totals (_Sharded,
//     _WeightedShard): the "sharded4-even" and "sharded4-weighted" rows.
//   - 10 were E17's fenced and planned figures: the E17 rows, with the
//     three inequalities the benchmarks enforced asserted below.
//   - 4 were the write-mix hit rates (_CachedWriteMix): the
//     "write-mix-hits-of-256" rows, as counts.
//   - 28 were the serial tally recomputed under another benchmark's name —
//     middleware-cost/op of _Sharded (8), _WeightedShard (8), _Stealing
//     (4), _CachedRepeat (4), _CachedWriteMix (4) never went through the
//     sharded evaluator, stealing or the cache — and 4 were _CachedRepeat's
//     cache-hit-rate over a fully warmed cache, always 1 (that a warmed
//     key hits is TestCacheHitBitIdentity and TestCacheEngineLRUBound in
//     internal/middleware). Neither kind has a row; do not restore them.
//
// That sharding, pipelining, the wire and the cache leave the
// unsharded-equivalent tally alone is asserted where those mechanisms
// live: internal/core's dense_equiv, fuzz, pipelined and shard_pipeline
// tests, internal/wire, internal/middleware's cache tests.

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"fuzzydb"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

var update = flag.Bool("update", false, "rewrite testdata/tallies.golden from this run")

// shardedTally evaluates A0/min/k=10 over db sharded four ways, one
// shard after the other (the deterministic mode), and returns the total
// tally and the largest single shard's. sketched cuts the universe by
// the exact grade-distribution sketches an engine over static
// subsystems serves (the "weighted" rows); without them the cut is the
// even one (the "even" rows).
func shardedTally(t *testing.T, db *scoredb.Database, sketched bool) (total, maxShard int) {
	t.Helper()
	cfg := core.ShardConfig{Shards: 4, Parallel: 1}
	if sketched {
		for i := 0; i < db.M(); i++ {
			cfg.Sketches = append(cfg.Sketches, subsys.SketchList(db.List(i)))
		}
	}
	sr, err := core.EvaluateSharded(context.Background(), core.A0{}, listSources(db), agg.Min, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sr.PerShard {
		maxShard = max(maxShard, c.Sum())
	}
	return sr.Cost.Sum(), maxShard
}

// twoListDB builds a two-list database over n objects from a grade rule.
func twoListDB(t *testing.T, n int, grades func(i int) (g1, g2 float64)) *scoredb.Database {
	t.Helper()
	var lists [2]*fuzzydb.List
	entries := [2][]fuzzydb.Entry{make([]fuzzydb.Entry, n), make([]fuzzydb.Entry, n)}
	for i := 0; i < n; i++ {
		g1, g2 := grades(i)
		entries[0][i] = fuzzydb.Entry{Object: i, Grade: g1}
		entries[1][i] = fuzzydb.Entry{Object: i, Grade: g2}
	}
	for j := range lists {
		l, err := fuzzydb.NewList(entries[j])
		if err != nil {
			t.Fatal(err)
		}
		lists[j] = l
	}
	db, err := scoredb.New(lists[:])
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// skewedShardDB builds the skewed workload of the threshold-merge claim:
// every global top answer lives in the first quarter of the universe
// (high correlated grades in both lists), while the remaining ids carry
// mid-range grades in list 1 — pollution the unsharded round-robin must
// wade through — and grades ≈0 in list 2. The hot shard's re-ranked view
// never sees the polluters, and every cold shard's threshold collapses
// below the published global k-th grade after one round.
func skewedShardDB(t *testing.T, n int) *scoredb.Database {
	hot := n / 4
	return twoListDB(t, n, func(i int) (g1, g2 float64) {
		if i < hot {
			g := 0.999 - float64(i)/float64(hot)*0.95
			return g, g
		}
		return 0.9 + (float64((i*7919)%n)+float64(i)/float64(n))/float64(n)*0.099,
			(float64((i*104729)%n) + float64(i)/float64(n)) / float64(n) * 0.001
	})
}

// skewedPlanDB builds the weighted planner's workload: all grade mass
// and every global winner lives in the hot first quarter, whose two
// lists are ANTI-correlated — an object at g1-rank r among the hot ids
// sits at g1-rank hot−1−r in list 2 — so the sorted prefixes of any hot
// slice only begin to intersect after covering half its width, and a
// shard over a hot slice of width w pays Θ(w) accesses. (The reversal
// survives restriction to any id slice, so the linear law holds for
// every shard the planner draws.) The cold tail carries near-zero mass
// in both lists and fences immediately. An even 4-way split hands
// shard 0 the entire hot region — a straggler carrying the whole
// partitioned cost — while the weighted plan cuts the hot region at
// mass quartiles.
func skewedPlanDB(t *testing.T, n int) *scoredb.Database {
	hot := n / 4
	return twoListDB(t, n, func(i int) (g1, g2 float64) {
		if i < hot {
			r := (i * 7919) % hot
			return 0.5 + 0.5*(float64(r)+0.5)/float64(hot), 0.5 + 0.5*(float64(hot-1-r)+0.5)/float64(hot)
		}
		h := float64((i*104729)%n) / float64(n)
		return 0.4 * h, 0.0004 * h
	})
}

// writeMixHits drives one cached engine per database over MUTABLE
// subsystems through 256 write-then-query steps and counts the queries
// still served from the cache. Seven writes in eight land a low grade
// strictly below any top-k threshold (τ-survivable: the entry's
// threshold test proves it cannot disturb the cached answer, unless the
// write lowered a member); the eighth raises an object above the
// threshold, and its query must be answered by a repair that reads the
// raised object's other grades and no sorted list — a miss, not a hit.
// UpdateGrade copies on write, so the generator's lists are never
// touched.
func writeMixHits(t *testing.T, dbs []*scoredb.Database) (hits int) {
	t.Helper()
	ctx := context.Background()
	m, n := dbs[0].M(), dbs[0].N()
	text := `A1 = "*"`
	for i := 2; i <= m; i++ {
		text += fmt.Sprintf(` AND A%d = "*"`, i)
	}
	q, err := fuzzydb.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	muts := make([][]*fuzzydb.MutableSubsystem, len(dbs))
	engines := make([]*fuzzydb.Engine, len(dbs))
	for d, db := range dbs {
		subs := make([]fuzzydb.Subsystem, m)
		muts[d] = make([]*fuzzydb.MutableSubsystem, m)
		for i := range subs {
			muts[d][i] = fuzzydb.NewMutableSubsystem(fmt.Sprintf("A%d", i+1), n)
			muts[d][i].Set("*", db.List(i))
			subs[i] = muts[d][i]
		}
		if engines[d], err = fuzzydb.NewEngine(subs, fuzzydb.WithCache(8)); err != nil {
			t.Fatal(err)
		}
		if _, err := engines[d].Query(ctx, q, fuzzydb.TopN(10)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(0xfa61, 8))
	for s := 0; s < 256; s++ {
		d := s % len(engines)
		obj, u := rng.IntN(n), rng.Float64()
		grade := 0.2 * u
		if s%8 == 7 {
			grade = 0.9995 + 0.0004*u
		}
		if err := muts[d][s%m].UpdateGrade("*", obj, grade); err != nil {
			t.Fatal(err)
		}
		rep, err := engines[d].Query(ctx, q, fuzzydb.TopN(10))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cache != nil && rep.Cache.Hit {
			hits++
		}
		if s%8 == 7 && (rep.Cache == nil || !rep.Cache.Repaired || rep.Cost.Sorted != 0) {
			t.Fatalf("write-mix step %d raised a grade: Cache = %+v, cost %+v; want a repair with no sorted access", s, rep.Cache, rep.Cost)
		}
	}
	return hits
}

func TestTalliesGolden(t *testing.T) {
	var out strings.Builder
	out.WriteString("# Exact Section 5 tallies S+R of A0/min/k=10, summed over each workload's\n" +
		"# databases. Generated by tallies_test.go (go test . -update), which says\n" +
		"# what each row is and what is asserted in code instead of listed here.\n")
	row := func(workload, config string, v int) {
		fmt.Fprintf(&out, "%-22s %-28s %d\n", workload, config, v)
	}

	a0 := func(srcs []subsys.Source, opts ...core.EvalOption) int {
		return runCost(t, core.A0{}, srcs, agg.Min, 10, opts...)
	}

	// uniform writes one E1/E2 workload's rows, and its write-mix row
	// when asked.
	uniform := func(name string, dbs []*scoredb.Database, writeMix bool) {
		var serial, even, weighted int
		for d, db := range dbs {
			base := a0(listSources(db))
			if got := a0(listSources(db), core.WithExecutor(core.Pipelined{P: db.M()})); got != base {
				t.Errorf("%s db %d: Pipelined{P: %d} tallies %d, serial %d", name, d, db.M(), got, base)
			}
			// The whole fault-tolerance stack with no fault firing: a
			// seeded FaultSource at rate 0 under a retry/breaker policy.
			faulty := listSources(db)
			for i, s := range faulty {
				faulty[i] = subsys.Resilient(subsys.NewFaultSource(s, subsys.FaultPlan{Seed: uint64(i) + 1, Rate: 0}), subsys.Policy{MaxRetries: 2})
			}
			if got := a0(faulty); got != base {
				t.Errorf("%s db %d: the zero-rate fault stack tallies %d, bare lists %d", name, d, got, base)
			}
			e, _ := shardedTally(t, db, false)
			w, _ := shardedTally(t, db, true)
			serial, even, weighted = serial+base, even+e, weighted+w
		}
		row(name, "serial", serial)
		row(name, "sharded4-even", even)
		row(name, "sharded4-weighted", weighted)
		if writeMix {
			row(name, "write-mix-hits-of-256", writeMixHits(t, dbs))
		}
	}
	for _, n := range []int{4096, 16384, 65536, 262144} {
		uniform(fmt.Sprintf("E1/N=%d", n), genDBs(n, 2, 4, scoredb.Uniform{}, 1), false)
	}
	for _, m := range []int{2, 3, 4, 5} {
		uniform(fmt.Sprintf("E2/m=%d", m), genDBs(32768, m, 4, scoredb.Uniform{}, 2), true)
	}

	// E17, fenced: on skewed data the cold shards stop after a handful of
	// accesses instead of feeding the round-robin pollution the unsharded
	// scan pays for, so the partitioned total drops far below it.
	for _, n := range []int{16384, 262144} {
		name := fmt.Sprintf("E17-fenced/N=%d", n)
		db := skewedShardDB(t, n)
		base := a0(listSources(db))
		sharded, _ := shardedTally(t, db, false)
		if sharded >= base {
			t.Errorf("%s: sharded tally %d not below the unsharded %d", name, sharded, base)
		}
		row(name, "serial", base)
		row(name, "sharded4-even", sharded)
	}
	// E17, planned: the even split hands one shard the whole hot region;
	// cutting at sketch quantiles must at least halve the largest shard
	// without raising the total.
	for _, n := range []int{16384, 262144} {
		name := fmt.Sprintf("E17-planned/N=%d", n)
		db := skewedPlanDB(t, n)
		evenTotal, evenMax := shardedTally(t, db, false)
		wTotal, wMax := shardedTally(t, db, true)
		if 2*wMax > evenMax {
			t.Errorf("%s: weighted max shard %d exceeds half the even plan's %d", name, wMax, evenMax)
		}
		if wTotal > evenTotal {
			t.Errorf("%s: weighted total %d above the even plan's %d", name, wTotal, evenTotal)
		}
		row(name, "serial", a0(listSources(db)))
		row(name, "sharded4-weighted", wTotal)
		row(name, "sharded4-weighted-max-shard", wMax)
	}

	const path = "testdata/tallies.golden"
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("%s is not what this run computes (git diff after -update shows the rows that moved); this run:\n%s", path, got)
	}
}
