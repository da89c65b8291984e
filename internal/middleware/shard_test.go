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
// merge per page, cut by the subsystems' sketches or, over subsystems
// that serve none, evenly, on one worker or several — and the answer
// stream, drained to the end of the universe, is the unsharded one.
func TestResultsHonorsShards(t *testing.T) {
	mw := genStore(t, 300, 2, 75)
	opaque, _ := opaqueEngine(t, mw)
	q := genConj(2)
	stream := func(mw *Middleware, opts ...QueryOption) []core.Result {
		var out []core.Result
		for r, err := range mw.Results(context.Background(), q, append([]QueryOption{TopN(7)}, opts...)...) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	plain := stream(mw)
	if len(plain) != 300 {
		t.Fatalf("plain stream yielded %d results, want the whole universe (300)", len(plain))
	}
	for _, tc := range []struct {
		name string
		mw   *Middleware
		opts []QueryOption
	}{
		{"shards=4", mw, []QueryOption{WithShards(4)}},
		{"shards=5 p=1", mw, []QueryOption{WithShards(5), WithParallelism(1)}},
		{"shards=4 even", opaque, []QueryOption{WithShards(4)}},
	} {
		if got := stream(tc.mw, tc.opts...); !reflect.DeepEqual(got, plain) {
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

// opaqueSubsystem embeds only the Subsystem interface, so it is no
// GradeSketcher: an engine over it cuts its shards evenly. Its lists
// count the random accesses that reach them.
type opaqueSubsystem struct {
	subsys.Subsystem
	grades *atomic.Int64
}

func (s opaqueSubsystem) Query(target string) (subsys.Source, error) {
	src, err := s.Subsystem.Query(target)
	if err != nil {
		return nil, err
	}
	return &countedList{ListSource: src.(subsys.ListSource), grades: s.grades}, nil
}

// countedList is a list whose raw random accesses are counted.
type countedList struct {
	subsys.ListSource
	grades *atomic.Int64
}

func (l *countedList) Grade(obj int) float64 {
	l.grades.Add(1)
	return l.ListSource.Grade(obj)
}

// opaqueEngine is an engine over mw's subsystems hidden behind
// opaqueSubsystem, and the count of random accesses its lists see.
func opaqueEngine(t *testing.T, mw *Middleware) (*Middleware, *atomic.Int64) {
	t.Helper()
	grades := new(atomic.Int64)
	subsystems := make([]subsys.Subsystem, 0, len(mw.subsystems))
	for _, s := range mw.subsystems {
		subsystems = append(subsystems, opaqueSubsystem{s, grades})
	}
	opaque, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	return opaque, grades
}

// TestShardsOverNonSketchersCutEvenly: over subsystems that serve no
// grade sketch the shards are the even ranges, with no planned work,
// and nothing samples the lists to draw them: the sources see exactly
// the random accesses the report meters.
func TestShardsOverNonSketchersCutEvenly(t *testing.T) {
	const n, m = 1200, 3
	plain := genStore(t, n, m, 71)
	mw, grades := opaqueEngine(t, plain)
	q := genConj(m)
	want, err := plain.Query(context.Background(), q, TopN(15))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mw.Query(context.Background(), q, TopN(15), WithShards(4), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 4 || !reflect.DeepEqual(rep.Results, want.Results) {
		t.Fatalf("%d shards, results\n got %v\nwant %v", rep.Shards, rep.Results, want.Results)
	}
	even := subsys.PlanShards(n, 4)
	for i, d := range rep.ShardDetails {
		if d.Range != even[i] || d.Planned != 0 {
			t.Errorf("shard %d: range %+v planned %v, want the even range %+v unplanned", i, d.Range, d.Planned, even[i])
		}
	}
	if got := grades.Load(); got != int64(rep.Cost.Random) {
		t.Errorf("the sources saw %d random accesses, the report meters %d", got, rep.Cost.Random)
	}
}

// skewedStore is tallies_test.go's skewedPlanDB shape over two Static
// subsystems: the first quarter of the universe is hot in both lists,
// each list's grade the reversal of the other's, and the cold tail
// carries near-zero mass. An even 4-way cut hands one shard the whole
// hot region.
func skewedStore(t *testing.T, n int) *Middleware {
	t.Helper()
	hot := n / 4
	var entries [2][]gradedset.Entry
	for i := 0; i < n; i++ {
		g1, g2 := 0.4*float64((i*104729)%n)/float64(n), 0.0004*float64((i*104729)%n)/float64(n)
		if i < hot {
			r := (i * 7919) % hot
			g1, g2 = 0.5+0.5*(float64(r)+0.5)/float64(hot), 0.5+0.5*(float64(hot-1-r)+0.5)/float64(hot)
		}
		entries[0] = append(entries[0], gradedset.Entry{Object: i, Grade: g1})
		entries[1] = append(entries[1], gradedset.Entry{Object: i, Grade: g2})
	}
	subsystems := make([]subsys.Subsystem, 2)
	for j := range subsystems {
		l, err := gradedset.NewList(entries[j])
		if err != nil {
			t.Fatal(err)
		}
		s := subsys.NewStatic(attrName(j), n)
		s.Set("*", l)
		subsystems[j] = s
	}
	mw, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

// TestShardsCutBySketchesBalanceSkew: WithShards alone, over subsystems
// that serve sketches, cuts the skewed universe at the sketches' work
// quantiles — the report's shard details carry the planned work — and
// the largest shard pays at most half of what it pays when the same
// lists, served without sketches, are cut evenly. The answers and the
// total stay the unsharded contract's.
func TestShardsCutBySketchesBalanceSkew(t *testing.T) {
	const n = 16384
	mw := skewedStore(t, n)
	q := genConj(2)
	largest := func(rep *Report) (c int) {
		for _, s := range rep.PerShard {
			c = max(c, s.Sum())
		}
		return c
	}
	cut, err := mw.Query(context.Background(), q, TopN(10), WithShards(4), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	opaque, _ := opaqueEngine(t, mw)
	even, err := opaque.Query(context.Background(), q, TopN(10), WithShards(4), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.ShardDetails) != 4 {
		t.Fatalf("%d shard details, want 4", len(cut.ShardDetails))
	}
	for i, d := range cut.ShardDetails {
		if d.Planned <= 0 {
			t.Errorf("shard %d: planned work %v; the sketches did not cut the universe", i, d.Planned)
		}
	}
	if c, e := largest(cut), largest(even); 2*c > e {
		t.Errorf("largest shard %d, over %d when cut evenly: want at most half", c, e)
	}
	if !reflect.DeepEqual(cut.Results, even.Results) {
		t.Errorf("results differ:\n cut  %v\n even %v", cut.Results, even.Results)
	}
}

// TestMutableShardedQueriesDuringWrites: two writers regrade objects of
// the same Mutable lists while readers run sharded queries, which cut by
// the sketches the writers keep moving. Under -race it is the check that
// a sketch a planner holds is never written into; every query still
// answers k results in grade order, cut by planned work, with per-shard
// costs that sum to the total.
func TestMutableShardedQueriesDuringWrites(t *testing.T) {
	const n, m, k = 2048, 2, 10
	_, eng, muts, _ := genMutableStore(t, n, m, 31, 16)
	q := genConj(m)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(seed, 9))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := muts[rng.IntN(m)].UpdateGrade("*", rng.IntN(n), rng.Float64()); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				rep, err := eng.Query(context.Background(), q, TopN(k), WithShards(4), WithParallelism(2))
				if err != nil {
					t.Error(err)
					return
				}
				var perShard cost.Cost
				for _, c := range rep.PerShard {
					perShard = perShard.Add(c)
				}
				if len(rep.Results) != k || perShard != rep.Cost || len(rep.ShardDetails) != 4 {
					t.Errorf("%d results, per-shard sum %v of %v, %d shard details", len(rep.Results), perShard, rep.Cost, len(rep.ShardDetails))
					return
				}
				for j, d := range rep.ShardDetails {
					if d.Planned <= 0 {
						t.Errorf("shard %d: planned work %v; the sketches did not cut the universe", j, d.Planned)
					}
				}
				for j := 1; j < k; j++ {
					if rep.Results[j].Grade > rep.Results[j-1].Grade {
						t.Errorf("results out of grade order at %d: %v", j, rep.Results)
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
