package middleware

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// TestQueryWithShardsMatchesUnsharded: a sharded engine request returns
// the same answers as the unsharded one and reports a consistent cost
// breakdown — total = Σ per-shard = Σ per-atom.
func TestQueryWithShardsMatchesUnsharded(t *testing.T) {
	mw := genStore(t, 1200, 3, 71)
	q := genConj(3)
	want, err := mw.Query(context.Background(), q, TopN(15))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 1, 4} {
		rep, err := mw.Query(context.Background(), q, TopN(15), WithShards(4), WithParallelism(par))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if rep.Shards != 4 {
			t.Errorf("par=%d: Shards = %d, want 4", par, rep.Shards)
		}
		if len(rep.PerShard) != 4 {
			t.Fatalf("par=%d: PerShard has %d entries, want 4", par, len(rep.PerShard))
		}
		if len(rep.Results) != len(want.Results) {
			t.Fatalf("par=%d: %d results, want %d", par, len(rep.Results), len(want.Results))
		}
		for i := range want.Results {
			if rep.Results[i] != want.Results[i] {
				t.Errorf("par=%d: result %d = %v, want %v", par, i, rep.Results[i], want.Results[i])
			}
		}
		var perShard, perList cost.Cost
		for _, c := range rep.PerShard {
			perShard = perShard.Add(c)
		}
		for _, c := range rep.PerList {
			perList = perList.Add(c)
		}
		if rep.Cost != perShard || rep.Cost != perList {
			t.Errorf("par=%d: cost %v, per-shard sum %v, per-atom sum %v", par, rep.Cost, perShard, perList)
		}
	}
}

// TestQueryWithShardsOneIsUnsharded: WithShards(1) and WithShards(0) are
// the plain evaluation, byte for byte, cost included.
func TestQueryWithShardsOneIsUnsharded(t *testing.T) {
	mw := genStore(t, 800, 2, 72)
	q := genConj(2)
	want, err := mw.Query(context.Background(), q, TopN(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1} {
		rep, err := mw.Query(context.Background(), q, TopN(10), WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cost != want.Cost {
			t.Errorf("WithShards(%d): cost %v, want %v", p, rep.Cost, want.Cost)
		}
		for i := range want.Results {
			if rep.Results[i] != want.Results[i] {
				t.Errorf("WithShards(%d): result %d differs", p, i)
			}
		}
	}
}

// TestQueryWithShardsBudget: the access budget of a sharded request is a
// single pool across shards — a starved request stops with the usual
// typed error and a partial-cost report that never overshoots.
func TestQueryWithShardsBudget(t *testing.T) {
	mw := genStore(t, 2048, 2, 73)
	q := genConj(2)
	free, err := mw.Query(context.Background(), q, TopN(10), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(free.Cost.Sum()) / 8
	rep, err := mw.Query(context.Background(), q, TopN(10), WithShards(4), WithAccessBudget(budget))
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if rep == nil {
		t.Fatal("no partial report on budget stop")
	}
	if rep.Results != nil {
		t.Error("results on budget-stopped request")
	}
	if got := float64(rep.Cost.Sum()); got > budget {
		t.Errorf("partial cost %v overshoots shared budget %v", got, budget)
	}
	if rep.Cost.Sum() == 0 {
		t.Error("zero partial cost")
	}
}

// TestResultsHonorsShards: the streaming iterator routes through the
// sharded paginator under WithShards — per-shard widening with a global
// merge per page, on the even or the weighted plan, on one worker or
// several — and the answer stream, drained to the end of the universe,
// is the unsharded one.
func TestResultsHonorsShards(t *testing.T) {
	mw := genStore(t, 300, 2, 75)
	q := genConj(2)
	stream := func(opts ...QueryOption) []core.Result {
		var out []core.Result
		for r, err := range mw.Results(context.Background(), q, append([]QueryOption{TopN(7)}, opts...)...) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	plain := stream()
	if len(plain) != 300 {
		t.Fatalf("plain stream yielded %d results, want the whole universe (300)", len(plain))
	}
	for _, tc := range []struct {
		name string
		opts []QueryOption
	}{
		{"shards=4", []QueryOption{WithShards(4)}},
		{"shards=5 p=1", []QueryOption{WithShards(5), WithParallelism(1)}},
		{"shards=4 weighted", []QueryOption{WithShards(4), WithShardPlan(core.ShardPlanWeighted)}},
	} {
		if got := stream(tc.opts...); !reflect.DeepEqual(got, plain) {
			t.Errorf("%s: stream diverged from the unsharded one:\n got %v\nwant %v", tc.name, got, plain)
		}
	}
}

// TestQueryWithShardsAndPrefetch: the composed mode — WithShards(P)
// plus WithPrefetch(d) — pipelines inside every shard while staying a
// pure transport change: at WithParallelism(1) the answers and the full
// cost breakdown match the plain sharded request bit for bit, and the
// report now aggregates the per-shard pipeline stats (the PR 5 fix:
// Report.Prefetch used to come back nil under WithShards).
func TestQueryWithShardsAndPrefetch(t *testing.T) {
	mw := genStore(t, 1600, 3, 82)
	q := genConj(3)
	want, err := mw.Query(context.Background(), q, TopN(12), WithShards(4), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Prefetch != nil {
		t.Errorf("plain sharded request reports pipeline stats: %+v", *want.Prefetch)
	}
	for _, depth := range []int{0, 4} {
		rep, err := mw.Query(context.Background(), q, TopN(12),
			WithShards(4), WithParallelism(1), WithPrefetch(depth))
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if rep.Shards != 4 {
			t.Errorf("depth=%d: Shards = %d, want 4", depth, rep.Shards)
		}
		if rep.Cost != want.Cost {
			t.Errorf("depth=%d: cost %v, want %v", depth, rep.Cost, want.Cost)
		}
		for s := range want.PerShard {
			if rep.PerShard[s] != want.PerShard[s] {
				t.Errorf("depth=%d: shard %d cost %v, want %v", depth, s, rep.PerShard[s], want.PerShard[s])
			}
		}
		if len(rep.Results) != len(want.Results) {
			t.Fatalf("depth=%d: %d results, want %d", depth, len(rep.Results), len(want.Results))
		}
		for i := range want.Results {
			if rep.Results[i] != want.Results[i] {
				t.Errorf("depth=%d: result %d = %v, want %v", depth, i, rep.Results[i], want.Results[i])
			}
		}
		if rep.Prefetch == nil {
			t.Fatalf("depth=%d: no aggregated pipeline stats on the sharded report", depth)
		}
		if rep.Prefetch.Batches == 0 {
			t.Errorf("depth=%d: aggregated stats report zero batches", depth)
		}
		if depth > 0 && rep.Prefetch.MaxDepth > depth {
			t.Errorf("fixed depth %d exceeded across shards: max %d", depth, rep.Prefetch.MaxDepth)
		}
	}
	// The streaming form composes too: per-shard pipelines across pages.
	var got []core.Result
	for r, err := range mw.Results(context.Background(), q, TopN(5), WithShards(4), WithPrefetch(0)) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		if len(got) == 15 {
			break
		}
	}
	for i := range got {
		if i < len(want.Results) && got[i] != want.Results[i] {
			t.Errorf("stream result %d = %v, want %v", i, got[i], want.Results[i])
		}
	}
}

// TestQueryWithPrefetchIsCostNeutral: the pipelined executor changes
// wall-clock only — answers and Section 5 tallies match the serial
// request bit for bit — and the report carries pipeline stats.
func TestQueryWithPrefetchIsCostNeutral(t *testing.T) {
	mw := genStore(t, 1500, 3, 81)
	q := genConj(3)
	want, err := mw.Query(context.Background(), q, TopN(12))
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 4} {
		rep, err := mw.Query(context.Background(), q, TopN(12), WithPrefetch(depth), WithParallelism(4))
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if rep.Cost != want.Cost {
			t.Errorf("depth=%d: cost %v, want %v", depth, rep.Cost, want.Cost)
		}
		if len(rep.Results) != len(want.Results) {
			t.Fatalf("depth=%d: %d results, want %d", depth, len(rep.Results), len(want.Results))
		}
		for i := range want.Results {
			if rep.Results[i] != want.Results[i] {
				t.Errorf("depth=%d: result %d = %v, want %v", depth, i, rep.Results[i], want.Results[i])
			}
		}
		if rep.Prefetch == nil {
			t.Fatalf("depth=%d: no pipeline stats on the report", depth)
		}
		if rep.Prefetch.Batches == 0 {
			t.Errorf("depth=%d: pipeline stats report zero batches", depth)
		}
		if depth > 0 && rep.Prefetch.MaxDepth > depth {
			t.Errorf("fixed depth %d exceeded: max %d", depth, rep.Prefetch.MaxDepth)
		}
	}
}

// droppyList stands in for a remote list while a weighted shard plan is
// being drawn: its plain Grade panics, as wire.RemoteSource's does on a
// transport failure, and its failAt-th random access fails, once.
type droppyList struct {
	subsys.ListSource
	failAt int64
	probes atomic.Int64
}

func (d *droppyList) Grade(int) float64 { panic("plain face of a remote list read") }

func (d *droppyList) TryEntry(rank int) (gradedset.Entry, error) { return d.Entry(rank), nil }

func (d *droppyList) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	return d.Entries(lo, hi), nil
}

func (d *droppyList) TryGrade(obj int) (float64, error) {
	if d.probes.Add(1) == d.failAt {
		return 0, errors.New("connection dropped")
	}
	return d.ListSource.Grade(obj), nil
}

// droppySubsystem serves droppyLists and, embedding only the interface,
// is no GradeSketcher: the planner has to sample its lists.
type droppySubsystem struct{ subsys.Subsystem }

func (s droppySubsystem) Query(target string) (subsys.Source, error) {
	src, err := s.Subsystem.Query(target)
	if err != nil {
		return nil, err
	}
	return &droppyList{ListSource: src.(subsys.ListSource), failAt: 100}, nil
}

// TestSampleSketchFailureFallsBackToEvenSplit: one dropped connection
// while the weighted planner samples a remote list costs the plan that
// list's sketch, not the process — the query still returns the
// unsharded answer.
func TestSampleSketchFailureFallsBackToEvenSplit(t *testing.T) {
	const n, m = 1200, 3
	plain := genStore(t, n, m, 71)
	subsystems := make([]subsys.Subsystem, m)
	for i := range subsystems {
		subsystems[i] = droppySubsystem{plain.subsystems[attrName(i)]}
	}
	mw, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	q := genConj(m)
	want, err := plain.Query(context.Background(), q, TopN(15))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mw.Query(context.Background(), q, TopN(15), WithShards(4), WithShardPlan(core.ShardPlanWeighted))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 4 || !reflect.DeepEqual(rep.Results, want.Results) {
		t.Fatalf("%d shards, results\n got %v\nwant %v", rep.Shards, rep.Results, want.Results)
	}
}
