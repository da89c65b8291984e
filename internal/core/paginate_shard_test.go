package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// drainPages collects the full page sequence of a paginator.
func drainPages(t *testing.T, p *Paginator, pageSize int) [][]Result {
	t.Helper()
	var pages [][]Result
	for {
		page, err := p.NextPage(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			return pages
		}
		pages = append(pages, page)
	}
}

// TestShardedPaginatorMatchesUnsharded is the sharded-pagination
// equivalence invariant: paginating over partitioned universe slices
// must deliver the very same page sequence as the unsharded paginator —
// page boundaries included — on tie-free data, across arities, shard
// counts, worker caps, and page sizes, since per-shard top-r sets are
// prefixes of each shard's total order and the merge is canonical.
func TestShardedPaginatorMatchesUnsharded(t *testing.T) {
	for _, m := range []int{2, 3} {
		for _, shards := range []int{3, 5} {
			for _, par := range []int{1, 4} {
				for _, pageSize := range []int{1, 7, 64} {
					db := scoredb.Generator{N: 300, M: m, Seed: uint64(70 + m)}.MustGenerate()
					label := fmt.Sprintf("m=%d/P=%d/par=%d/page=%d", m, shards, par, pageSize)

					ref, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{})
					if err != nil {
						t.Fatal(err)
					}
					want := drainPages(t, ref, pageSize)
					ref.Release()

					sp, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min,
						ShardConfig{Shards: shards, Parallel: par})
					if err != nil {
						t.Fatal(err)
					}
					if len(sp.slices) != shards {
						t.Fatalf("%s: paginator has %d slices, want %d", label, len(sp.slices), shards)
					}
					got := drainPages(t, sp, pageSize)
					sp.Release()

					if len(got) != len(want) {
						t.Fatalf("%s: %d pages sharded, %d unsharded", label, len(got), len(want))
					}
					for pi := range want {
						if len(got[pi]) != len(want[pi]) {
							t.Fatalf("%s: page %d has %d results sharded, %d unsharded",
								label, pi, len(got[pi]), len(want[pi]))
						}
						for i := range want[pi] {
							if got[pi][i] != want[pi][i] {
								t.Errorf("%s: page %d result %d: sharded %v, unsharded %v",
									label, pi, i, got[pi][i], want[pi][i])
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedPaginatorHonorsWeightedPlan: a paginator under the weighted
// plan slices at exactly PlanShardsWeighted's ranges — on a skewed
// universe, where they differ from the even ones — and its pages still
// match the unsharded pages.
func TestShardedPaginatorHonorsWeightedPlan(t *testing.T) {
	const n, shards = 4096, 4
	db := skewedDB(t, n, n/shards)
	sketches := []*subsys.Sketch{subsys.SketchList(db.List(0)), subsys.SketchList(db.List(1))}
	plan, _ := PlanShardsWeighted(n, shards, sketches, agg.Min)
	if reflect.DeepEqual(plan, subsys.PlanShards(n, shards)) {
		t.Fatalf("weighted plan %v is the even one; the universe is not skewed enough to tell", plan)
	}
	ref, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	sp, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min,
		ShardConfig{Shards: shards, Parallel: 1, Sketches: sketches})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Release()
	got := make([]subsys.ShardRange, len(sp.slices))
	for i := range sp.slices {
		got[i] = sp.slices[i].r
	}
	if !reflect.DeepEqual(got, plan) {
		t.Fatalf("paginator slices %v, want the weighted plan %v", got, plan)
	}
	for page := 0; page < 6; page++ {
		want, err := ref.NextPage(16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.NextPage(16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d: weighted %v, unsharded %v", page, got, want)
		}
	}
}

// TestShardedPaginatorClampsAndDegenerates covers the edges: a shard
// count above N clamps, a count of one degenerates to the unsharded
// paginator, and an invalid page size is rejected.
func TestShardedPaginatorClampsAndDegenerates(t *testing.T) {
	db := scoredb.Generator{N: 40, M: 2, Seed: 77}.MustGenerate()
	sp, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min,
		ShardConfig{Shards: 1000, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.slices) != 40 {
		t.Errorf("Shards=1000 over N=40 opened %d slices, want 40", len(sp.slices))
	}
	pages := drainPages(t, sp, 7)
	total := 0
	for _, p := range pages {
		total += len(p)
	}
	if total != 40 {
		t.Errorf("clamped pagination delivered %d results, want 40", total)
	}
	sp.Release()

	single, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min,
		ShardConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.slices) != 1 || single.slices[0].r != (subsys.ShardRange{}) {
		t.Error("Shards=1 did not degenerate to one slice over the raw sources")
	}
	if _, err := single.NextPage(0); !errors.Is(err, ErrBadK) {
		t.Errorf("NextPage(0) = %v, want ErrBadK", err)
	}
	single.Release()
}

// TestShardedPaginationBudgetIsCumulative: one budget pool spans every
// shard and every page; the cumulative spend never overshoots.
func TestShardedPaginationBudgetIsCumulative(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 2, Seed: 78}.MustGenerate()
	const budget = 3000.0
	sp, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min,
		ShardConfig{Shards: 4, Parallel: 1, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Release()
	pages := 0
	for {
		page, err := sp.NextPage(16)
		if errors.Is(err, ErrBudgetExceeded) {
			if got := float64(sp.Cost().Sum()); got > budget {
				t.Errorf("cumulative spend %v over budget %v", got, budget)
			}
			if pages == 0 {
				t.Error("budget exhausted before any page")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			t.Fatal("pagination drained the database without hitting the budget")
		}
		pages++
	}
}

// TestShardedPaginationCancellation: canceling the request context stops
// the next page promptly with the context error.
func TestShardedPaginationCancellation(t *testing.T) {
	db := scoredb.Generator{N: 512, M: 2, Seed: 79}.MustGenerate()
	ctx, cancel := context.WithCancel(context.Background())
	sp, err := NewPaginator(ctx, A0{}, sourcesOf(db), agg.Min,
		ShardConfig{Shards: 4, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Release()
	if _, err := sp.NextPage(5); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := sp.NextPage(5); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel NextPage = %v, want context.Canceled", err)
	}
}
