package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// TestShardedP1ByteForByte: Shards ≤ 1 must degenerate to the plain
// unsharded pipeline byte for byte — identical results AND identical
// cost tallies.
func TestShardedP1ByteForByte(t *testing.T) {
	db := scoredb.Generator{N: 700, M: 3, Seed: 61}.MustGenerate()
	cases := []struct {
		alg    Algorithm
		f      agg.Func
		shards int
	}{
		{A0{}, agg.Min, 1},
		{A0{}, agg.Min, 0},
		{A0Prime{}, agg.Min, 1},
		{TA{}, agg.Min, -3},
	}
	for _, tc := range cases {
		want, wantCost, err := Evaluate(context.Background(), tc.alg, sourcesOf(db), tc.f, 12)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := EvaluateSharded(context.Background(), tc.alg, sourcesOf(db), tc.f, 12,
			ShardConfig{Shards: tc.shards})
		if err != nil {
			t.Fatalf("%s/P=%d: %v", tc.alg.Name(), tc.shards, err)
		}
		if sr.Shards != 1 {
			t.Errorf("%s/P=%d: reported %d shards, want 1", tc.alg.Name(), tc.shards, sr.Shards)
		}
		if sr.Cost != wantCost {
			t.Errorf("%s/P=%d: cost %v, unsharded %v", tc.alg.Name(), tc.shards, sr.Cost, wantCost)
		}
		if len(sr.Results) != len(want) {
			t.Fatalf("%s/P=%d: %d results, want %d", tc.alg.Name(), tc.shards, len(sr.Results), len(want))
		}
		for i := range want {
			if sr.Results[i] != want[i] {
				t.Errorf("%s/P=%d: result %d = %v, want %v", tc.alg.Name(), tc.shards, i, sr.Results[i], want[i])
			}
		}
	}
}

// TestShardedMoreShardsThanObjects: a shard count beyond the universe
// size clamps to one object per shard and still merges the exact global
// top k, for every k.
func TestShardedMoreShardsThanObjects(t *testing.T) {
	db := scoredb.Generator{N: 7, M: 2, Seed: 62}.MustGenerate()
	for k := 1; k <= 7; k++ {
		want, _, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, k,
			ShardConfig{Shards: 50})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sr.Shards != 7 {
			t.Errorf("k=%d: planned %d shards, want 7 (clamped to N)", k, sr.Shards)
		}
		for i := range want {
			if sr.Results[i] != want[i] {
				t.Errorf("k=%d: result %d = %v, want %v", k, i, sr.Results[i], want[i])
			}
		}
	}
}

// tieDB builds a database whose m lists grade every object identically
// (overall grade = per-list grade), strictly descending by id except for
// a block of objects tied at one grade. Both evaluation strategies see
// the same canonical order, so the top-k — including the tie class at
// the global k-th score — must come out byte-identical.
func tieDB(t *testing.T, n, m, tieLo, tieHi int, tieGrade float64) *scoredb.Database {
	t.Helper()
	entries := make([]gradedset.Entry, n)
	for i := 0; i < n; i++ {
		g := 1 - float64(i)/float64(2*n)
		if i >= tieLo && i < tieHi {
			g = tieGrade
		}
		entries[i] = gradedset.Entry{Object: i, Grade: g}
	}
	lists := make([]*gradedset.List, m)
	for j := range lists {
		l, err := gradedset.NewList(entries)
		if err != nil {
			t.Fatal(err)
		}
		lists[j] = l
	}
	db, err := scoredb.New(lists)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardedTiesAtGlobalKth pins the merge's tie policy: with the
// global k-th score shared by a block of objects straddling shard
// boundaries, the sharded evaluation must pick exactly the tied objects
// with the smallest ids, in the same order as the unsharded run —
// byte-identical results for every algorithm under test, every k inside
// the tie block, and every shard count.
func TestShardedTiesAtGlobalKth(t *testing.T) {
	const n, m = 120, 2
	// Objects 30..89 all tie at grade 0.4 (below the 30 better objects);
	// with P=4 the block spans shards [30,60) and [60,90).
	db := tieDB(t, n, m, 30, 90, 0.4)
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0Prime{}, agg.Min},
		{TA{}, agg.Min},
		{B0{}, agg.Max},
		{NaiveSorted{}, agg.Min},
	}
	for _, tc := range algs {
		for _, k := range []int{31, 45, 60, 89, 90, 120} {
			want, _, err := Evaluate(context.Background(), tc.alg, sourcesOf(db), tc.f, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 7} {
				label := fmt.Sprintf("%s/k=%d/P=%d", tc.alg.Name(), k, shards)
				sr, err := EvaluateSharded(context.Background(), tc.alg, sourcesOf(db), tc.f, k,
					ShardConfig{Shards: shards, Parallel: 1})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(sr.Results) != len(want) {
					t.Fatalf("%s: %d results, want %d", label, len(sr.Results), len(want))
				}
				for i := range want {
					if sr.Results[i] != want[i] {
						t.Errorf("%s: result %d = %v, want %v", label, i, sr.Results[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedCancellationMidShard cancels a sharded evaluation over slow
// sources mid-flight: every shard worker must notice between accesses,
// the workers must be joined, and the call must return the context error
// with the partial cost — promptly, under both sequential and parallel
// shard execution.
func TestShardedCancellationMidShard(t *testing.T) {
	db := scoredb.Generator{N: 16384, M: 2, Seed: 64}.MustGenerate()
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		sr, err := EvaluateSharded(ctx, A0{}, slowSourcesOf(db, time.Millisecond), agg.Min, 10,
			ShardConfig{Shards: 4, Parallel: par})
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		if sr.Results != nil {
			t.Errorf("par=%d: results on canceled evaluation: %v", par, sr.Results)
		}
		if elapsed > 2*time.Second {
			t.Errorf("par=%d: cancellation took %v, want prompt return", par, elapsed)
		}
		if sr.Cost.Sum() == 0 {
			t.Errorf("par=%d: partial cost is zero; evaluation never started", par)
		}
		t.Logf("par=%d: canceled after %v with partial cost %v", par, elapsed, sr.Cost)
	}
}

// TestShardedBudgetPool: the access budget of a sharded evaluation is
// one global reservation pool. A budget far below the sharded cost must
// stop the evaluation with a *BudgetError whose spend never overshoots;
// a generous budget must not change the answers; and the weighted
// partial spend must respect a skewed cost model.
func TestShardedBudgetPool(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 3, Seed: 65}.MustGenerate()
	free, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 20,
		ShardConfig{Shards: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 4} {
		budget := float64(free.Cost.Sum()) / 10
		sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 20,
			ShardConfig{Shards: 4, Parallel: par, Budget: budget})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("par=%d: err = %v, want ErrBudgetExceeded", par, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("par=%d: err %v does not expose *BudgetError", par, err)
		}
		if be.Limit != budget {
			t.Errorf("par=%d: BudgetError.Limit = %v, want %v", par, be.Limit, budget)
		}
		if be.Spent > budget {
			t.Errorf("par=%d: BudgetError.Spent = %v overshoots %v", par, be.Spent, budget)
		}
		if sr.Results != nil {
			t.Errorf("par=%d: results on budget-stopped evaluation", par)
		}
		if got := float64(sr.Cost.Sum()); got > budget {
			t.Errorf("par=%d: global spend %v overshoots shared budget %v", par, got, budget)
		}
		if sr.Cost.Sum() == 0 {
			t.Errorf("par=%d: zero partial cost", par)
		}
	}

	// Generous budget: identical answers to the unbudgeted sharded run.
	sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 20,
		ShardConfig{Shards: 4, Parallel: 1, Budget: float64(free.Cost.Sum()) * 2})
	if err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
	for i := range free.Results {
		if sr.Results[i] != free.Results[i] {
			t.Errorf("budgeted result %d = %v, want %v", i, sr.Results[i], free.Results[i])
		}
	}

	// Skewed prices: the weighted spend is what must stay within budget.
	model := cost.Model{C1: 1, C2: 10}
	sr, err = EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 20,
		ShardConfig{Shards: 4, Parallel: 4, Budget: 800, Model: model})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("weighted: err = %v, want ErrBudgetExceeded", err)
	}
	if got := model.Of(sr.Cost); got > 800 {
		t.Errorf("weighted spend %v overshoots budget 800", got)
	}
}

// skewedDB builds the skewed workload of the threshold-merge claim: the
// global top answers all live in the first shard (ids < hot), whose
// grades are high and perfectly correlated across both lists, while the
// cold ids pollute list 1 with mid-range grades but grade near zero in
// list 2. Unsharded A₀ must scan past the polluters round after round
// to assemble k matches; the hot shard's re-ranked view never sees them,
// and every cold shard's threshold collapses after one round.
func skewedDB(t testing.TB, n, hot int) *scoredb.Database {
	t.Helper()
	e1 := make([]gradedset.Entry, n)
	e2 := make([]gradedset.Entry, n)
	for i := 0; i < n; i++ {
		var g1, g2 float64
		if i < hot {
			g1 = 0.999 - float64(i)/float64(hot)*0.95
			g2 = g1
		} else {
			// Deterministic pollution: cold ids grade 0.9–0.999 in list 1 —
			// ABOVE almost every hot id, so the unsharded round-robin must
			// wade through them — but ≈0 in list 2, so they never become
			// matches. Fractional offsets keep every grade distinct.
			g1 = 0.9 + (float64((i*7919)%n)+float64(i)/float64(n))/float64(n)*0.099
			g2 = (float64((i*104729)%n) + float64(i)/float64(n)) / float64(n) * 0.001
		}
		e1[i] = gradedset.Entry{Object: i, Grade: g1}
		e2[i] = gradedset.Entry{Object: i, Grade: g2}
	}
	l1, err := gradedset.NewList(e1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := gradedset.NewList(e2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := scoredb.New([]*gradedset.List{l1, l2})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardedSkewDoesLessWork is the threshold-merge payoff: on skewed
// data the sharded evaluation must spend strictly fewer total Section 5
// accesses than the unsharded one — the cold shards fence after a
// handful of rounds — while returning byte-identical answers. Sequential
// shard execution makes the tally deterministic.
func TestShardedSkewDoesLessWork(t *testing.T) {
	const n, k, shards = 4096, 10, 4
	db := skewedDB(t, n, n/shards)
	want, unsharded, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, k,
		ShardConfig{Shards: shards, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sr.Results[i] != want[i] {
			t.Fatalf("result %d = %v, want %v", i, sr.Results[i], want[i])
		}
	}
	if sr.Cost.Sum() >= unsharded.Sum() {
		t.Errorf("sharded cost %v not below unsharded %v on skewed data", sr.Cost, unsharded)
	}
	// The cold shards must have been fenced early: each strictly cheaper
	// than the hot shard.
	for s := 1; s < shards; s++ {
		if sr.PerShard[s].Sum() >= sr.PerShard[0].Sum() {
			t.Errorf("cold shard %d cost %v not below hot shard %v", s, sr.PerShard[s], sr.PerShard[0])
		}
	}
	t.Logf("unsharded %v, sharded %v (hot %v, cold %v %v %v)",
		unsharded, sr.Cost, sr.PerShard[0], sr.PerShard[1], sr.PerShard[2], sr.PerShard[3])
}

// TestShardedDeterministicSequentialCost: with Parallel=1 the whole
// report — answers and every tally — must be reproducible bit for bit.
func TestShardedDeterministicSequentialCost(t *testing.T) {
	db := skewedDB(t, 2048, 512)
	first, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 8,
		ShardConfig{Shards: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 8,
			ShardConfig{Shards: 4, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Cost != first.Cost {
			t.Fatalf("trial %d: cost %v, want %v", trial, sr.Cost, first.Cost)
		}
		for s := range first.PerShard {
			if sr.PerShard[s] != first.PerShard[s] {
				t.Fatalf("trial %d: shard %d cost %v, want %v", trial, s, sr.PerShard[s], first.PerShard[s])
			}
		}
		for i := range first.Results {
			if sr.Results[i] != first.Results[i] {
				t.Fatalf("trial %d: result %d diverged", trial, i)
			}
		}
	}
}

// TestShardedBadArgs: argument errors surface exactly as the unsharded
// contract states them.
func TestShardedBadArgs(t *testing.T) {
	db := scoredb.Generator{N: 50, M: 2, Seed: 66}.MustGenerate()
	if _, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 0,
		ShardConfig{Shards: 4}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: err = %v, want ErrBadK", err)
	}
	if _, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 51,
		ShardConfig{Shards: 4}); !errors.Is(err, ErrBadK) {
		t.Errorf("k>N: err = %v, want ErrBadK", err)
	}
	if _, err := EvaluateSharded(context.Background(), A0{}, nil, agg.Min, 1,
		ShardConfig{Shards: 4}); !errors.Is(err, ErrNoLists) {
		t.Errorf("no lists: err = %v, want ErrNoLists", err)
	}
	// Shards evaluate serially inside: a pipelined sharded evaluation is
	// refused by name, never run serially in silence. Unsharded, Prefetch
	// is the pipelined executor.
	if rep, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 5,
		ShardConfig{Shards: 4, Prefetch: true}); !errors.Is(err, ErrShardedPrefetch) || rep.Cost.Sum() != 0 {
		t.Errorf("Shards=4 with Prefetch: err = %v, cost %v; want ErrShardedPrefetch before any access", err, rep.Cost)
	}
	if rep, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 5,
		ShardConfig{Shards: 1, Prefetch: true}); err != nil || rep.Prefetch == nil {
		t.Errorf("Shards=1 with Prefetch: err = %v, Prefetch stats %v; want a pipelined evaluation", err, rep.Prefetch)
	}
}

// TestShardedTwoEvenShards pins what the benchmark ladder's sharded rung
// times: ShardConfig{Shards: 2} is a real two-shard evaluation over the
// two even ranges, each shard's tally exactly that of the algorithm run
// alone over its range's re-ranked views (A0Prime is never fenced).
func TestShardedTwoEvenShards(t *testing.T) {
	db := scoredb.Generator{N: 1001, M: 3, Seed: 67}.MustGenerate()
	sr, err := EvaluateSharded(context.Background(), A0Prime{}, sourcesOf(db), agg.Min, 10, ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Shards != 2 || len(sr.PerShard) != 2 {
		t.Fatalf("reported %d shards, %d per-shard tallies; want 2", sr.Shards, len(sr.PerShard))
	}
	ranges := subsys.PlanShards(1001, 2)
	if ranges[0] != (subsys.ShardRange{Lo: 0, Hi: 501}) || ranges[1] != (subsys.ShardRange{Lo: 501, Hi: 1001}) {
		t.Fatalf("even ranges %v", ranges)
	}
	for i, r := range ranges {
		_, c, err := Evaluate(context.Background(), A0Prime{}, subsys.ShardSources(sourcesOf(db), r), agg.Min, 10)
		if err != nil {
			t.Fatal(err)
		}
		if sr.PerShard[i] != c {
			t.Errorf("shard %d over %v: tally %v, the range alone %v", i, r, sr.PerShard[i], c)
		}
	}
}
