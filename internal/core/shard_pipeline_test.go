package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// shardedPrefetchConfig is the composed-mode ShardConfig the tests in
// this file use: P shards, each pipelined inside.
func shardedPrefetchConfig(shards, par, depth int) ShardConfig {
	return ShardConfig{Shards: shards, Parallel: par, Prefetch: true, PrefetchCap: depth}
}

// TestShardedPrefetchMatchesSerialSharded is the composition invariant:
// running every shard under its own pipelined executor is a transport
// change only. At Parallel=1 (deterministic fencing) the composed mode
// must match the serial-inside sharded evaluation byte for byte —
// results, total cost, per-shard and per-list tallies — and at
// Parallel=4 the results must still satisfy the shard-equivalence
// contract against the unsharded reference. Runs across algorithms,
// laws, adaptive and fixed depths (the CI suite repeats it under -race,
// which also exercises the per-shard pipelines against the shared
// re-ranking views and the scoreboard).
func TestShardedPrefetchMatchesSerialSharded(t *testing.T) {
	laws := map[string]scoredb.GradeLaw{
		"Uniform": scoredb.Uniform{},
		"Binary":  scoredb.Binary{P: 0.08},
	}
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0{}, agg.ArithmeticMean},
		{TA{}, agg.AlgebraicProduct},
		{A0Prime{}, agg.Min},
		{B0{}, agg.Max},
		{OrderStat{}, agg.Median},
	}
	rng := rand.New(rand.NewSource(71))
	for lawName, law := range laws {
		for m := 2; m <= 4; m++ {
			n := 200 + rng.Intn(300)
			db := scoredb.Generator{N: n, M: m, Law: law, Seed: uint64(700*m) + 5}.MustGenerate()
			for _, tc := range algs {
				k := 1 + rng.Intn(n)
				shards := 2 + rng.Intn(5)
				depth := rng.Intn(5) // 0 = adaptive
				label := fmt.Sprintf("%s/m=%d/%s-%s/k=%d/P=%d/depth=%d",
					lawName, m, tc.alg.Name(), tc.f.Name(), k, shards, depth)

				want, err := EvaluateSharded(context.Background(), tc.alg, sourcesOf(db), tc.f, k,
					ShardConfig{Shards: shards, Parallel: 1})
				if err != nil {
					t.Fatalf("%s: serial sharded: %v", label, err)
				}
				got, err := EvaluateSharded(context.Background(), tc.alg, sourcesOf(db), tc.f, k,
					shardedPrefetchConfig(shards, 1, depth))
				if err != nil {
					t.Fatalf("%s: pipelined sharded: %v", label, err)
				}
				if got.Cost != want.Cost {
					t.Errorf("%s: pipelined cost %v != serial %v", label, got.Cost, want.Cost)
				}
				if len(got.Results) != len(want.Results) {
					t.Fatalf("%s: %d results pipelined, %d serial", label, len(got.Results), len(want.Results))
				}
				for i := range want.Results {
					if got.Results[i] != want.Results[i] {
						t.Errorf("%s: result %d differs: pipelined %v, serial %v",
							label, i, got.Results[i], want.Results[i])
					}
				}
				for s := range want.PerShard {
					if got.PerShard[s] != want.PerShard[s] {
						t.Errorf("%s: shard %d cost %v != serial %v", label, s, got.PerShard[s], want.PerShard[s])
					}
				}
				for j := range want.PerList {
					if got.PerList[j] != want.PerList[j] {
						t.Errorf("%s: list %d cost %v != serial %v", label, j, got.PerList[j], want.PerList[j])
					}
				}

				// Parallel shard workers: fencing timing varies, so only
				// the equivalence contract against unsharded holds.
				unsharded, _, err := Evaluate(context.Background(), tc.alg, sourcesOf(db), tc.f, k)
				if err != nil {
					t.Fatalf("%s: unsharded: %v", label, err)
				}
				par, err := EvaluateSharded(context.Background(), tc.alg, sourcesOf(db), tc.f, k,
					shardedPrefetchConfig(shards, 4, depth))
				if err != nil {
					t.Fatalf("%s: pipelined sharded par=4: %v", label, err)
				}
				requireShardEquiv(t, label+"/par=4", unsharded, par.Results, trueScorer(db, tc.f))
			}
		}
	}
}

// TestShardedPrefetchReportsStats pins the stats satellite at the core
// level: a composed run must surface aggregated pipeline stats — the
// pipelines genuinely engaged per shard — while a serial sharded run
// reports none.
func TestShardedPrefetchReportsStats(t *testing.T) {
	db := scoredb.Generator{N: 2000, M: 3, Seed: 72}.MustGenerate()
	serial, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 10,
		ShardConfig{Shards: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Prefetch != nil {
		t.Errorf("serial sharded run reports prefetch stats: %+v", *serial.Prefetch)
	}
	piped, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 10,
		shardedPrefetchConfig(4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if piped.Prefetch == nil {
		t.Fatal("pipelined sharded run reports no prefetch stats")
	}
	if piped.Prefetch.Batches == 0 {
		t.Error("aggregated stats show zero batches; pipelines never engaged")
	}
	if piped.Prefetch.MaxDepth < 1 {
		t.Errorf("aggregated MaxDepth = %d, want >= 1", piped.Prefetch.MaxDepth)
	}
}

// skewedShardSources builds the fencing workload: shard 0 (objects
// below n/shards) owns every top answer with correlated high grades,
// while the rest of the universe is uniformly mediocre, so every cold
// shard's frontier collapses below the published global k-th grade
// after a handful of rounds.
func skewedShardSources(t *testing.T, n, shards int) []subsys.Source {
	t.Helper()
	lists := make([]subsys.Source, 2)
	for j := 0; j < 2; j++ {
		entries := make([]gradedset.Entry, n)
		for i := 0; i < n; i++ {
			g := 0.4 * float64((i*7919+j)%n) / float64(n)
			if i < n/shards {
				g = 0.999 - 0.3*float64(i)/float64(n/shards)
			}
			entries[i] = gradedset.Entry{Object: i, Grade: g}
		}
		l, err := gradedset.NewList(entries)
		if err != nil {
			t.Fatal(err)
		}
		lists[j] = subsys.FromList(l)
	}
	return lists
}

// pollutedSkewSources is the harder fencing workload (the shape of
// BenchmarkE17_ShardedSkew): every global top answer lives in the first
// 1/shards of the universe with correlated high grades in both lists,
// while the remaining ids carry near-top grades in list 0 — pollution
// the unsharded round-robin must wade through — and grades ≈ 0 in
// list 1, so every cold shard's frontier aggregate collapses after one
// round and the threshold merge fences it.
func pollutedSkewSources(t *testing.T, n, shards int) []subsys.Source {
	t.Helper()
	hot := n / shards
	e1 := make([]gradedset.Entry, n)
	e2 := make([]gradedset.Entry, n)
	for i := 0; i < n; i++ {
		var g1, g2 float64
		if i < hot {
			g1 = 0.999 - float64(i)/float64(hot)*0.95
			g2 = g1
		} else {
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
	return []subsys.Source{subsys.FromList(l1), subsys.FromList(l2)}
}

// TestShardedPrefetchFenceDrainsStreamingPipelines fences shards whose
// background pipelines are genuinely streaming (slow sources, batches
// in flight when the threshold stop lands): the fence must drain each
// fenced shard's pipelines — the physical call counters settle after
// the evaluation returns — while answers and tallies stay bit-identical
// to the serial-inside sharded run, and the fencing saving survives
// (total sharded cost below the unsharded tally on this skew).
func TestShardedPrefetchFenceDrainsStreamingPipelines(t *testing.T) {
	const n, shards = 4096, 4
	want, err := EvaluateSharded(context.Background(), A0{}, pollutedSkewSources(t, n, shards), agg.Min, 10,
		ShardConfig{Shards: shards, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs := pollutedSkewSources(t, n, shards)
	for i := range srcs {
		srcs[i] = subsys.NewLatencySource(srcs[i], 100*time.Microsecond, 0)
	}
	var gauge callGauge
	srcs = gauged(srcs, &gauge)
	got, err := EvaluateSharded(context.Background(), A0{}, srcs, agg.Min, 10,
		shardedPrefetchConfig(shards, 1, 0))
	if err != nil {
		t.Fatalf("composed evaluation failed: %v", err)
	}
	if got.Cost != want.Cost {
		t.Errorf("composed cost %v != serial sharded %v", got.Cost, want.Cost)
	}
	for s := range want.PerShard {
		if got.PerShard[s] != want.PerShard[s] {
			t.Errorf("shard %d cost %v != serial %v", s, got.PerShard[s], want.PerShard[s])
		}
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Errorf("result %d = %v, want %v", i, got.Results[i], want.Results[i])
		}
	}
	// The threshold fencing engaged: cold shards stopped early, so the
	// partitioned total undercuts the unsharded round-robin on this skew.
	wantUnshardedCost := 0
	{
		_, c, err := Evaluate(context.Background(), A0{}, pollutedSkewSources(t, n, shards), agg.Min, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantUnshardedCost = c.Sum()
	}
	if got.Cost.Sum() >= wantUnshardedCost {
		t.Errorf("fencing did not engage: sharded cost %d, unsharded %d", got.Cost.Sum(), wantUnshardedCost)
	}
	gauge.requireDrained(t, "the fenced evaluation returned")
}

// deepBlockSource parks every batched sorted access that reaches past
// minLo until released: the wedged-subsystem case scoped to the deep
// scans only — a cold shard's re-ranking scan (which must wade past the
// hot prefix to find its objects) wedges, while the hot shard's shallow
// scans proceed. The first deep scan to park closes parked; a gated
// source holds its shallow scans back until then, so a test can make
// "the cold shard is wedged" happen before "the hot shard finished"
// instead of hoping the scheduler orders them that way.
type deepBlockSource struct {
	src     subsys.Source
	release chan struct{}
	minLo   int
	parked  chan struct{}
	once    *sync.Once
	gated   bool
}

func (s deepBlockSource) Len() int                       { return s.src.Len() }
func (s deepBlockSource) Entry(rank int) gradedset.Entry { return s.src.Entry(rank) }
func (s deepBlockSource) Entries(lo, hi int) []gradedset.Entry {
	switch {
	case hi > s.minLo:
		s.once.Do(func() { close(s.parked) })
		<-s.release
	case s.gated:
		select {
		case <-s.parked:
		case <-s.release:
		}
	}
	return s.src.Entries(lo, hi)
}
func (s deepBlockSource) Grade(obj int) float64 { return s.src.Grade(obj) }

// atomicBlockSource parks every batched sorted access after the first
// until released. Unlike blockSource it is safe to share between the
// several pipeline workers a sharded pipelined evaluation runs against
// one parent source.
type atomicBlockSource struct {
	src     subsys.Source
	release chan struct{}
	calls   *atomic.Int64
}

func (s atomicBlockSource) Len() int                       { return s.src.Len() }
func (s atomicBlockSource) Entry(rank int) gradedset.Entry { return s.src.Entry(rank) }
func (s atomicBlockSource) Entries(lo, hi int) []gradedset.Entry {
	if s.calls.Add(1) > 1 {
		<-s.release
	}
	return s.src.Entries(lo, hi)
}
func (s atomicBlockSource) Grade(obj int) float64 { return s.src.Grade(obj) }

// TestShardedPrefetchCancellationWedgedFencedShard is the composed
// worst case: on the skewed workload the cold shard — the one the
// threshold merge would fence — wedges mid-pipeline during its deep
// re-ranking scan, with its consumer parked on the wedged batch, while
// the hot shard finishes and publishes its answers. Cancellation must
// abandon the wedged shard promptly (*AbandonedError wrapping
// context.Canceled) and report consistent partial tallies; the wedged
// worker is released only after the evaluation has returned.
//
// The order is forced, not raced: a hot shard that finished first would
// fence the cold one before it ever started a pipeline, and the
// evaluation would (correctly) complete. So list 1 serves no shallow scan
// until a deep scan has parked, which only the cold shard's list-0
// pipeline can do (its own list-1 scans are held back like the hot
// shard's): the hot shard cannot complete a round before the cold shard
// is wedged, and the cancellation clock starts there.
func TestShardedPrefetchCancellationWedgedFencedShard(t *testing.T) {
	const n, shards = 2048, 2
	srcs := skewedShardSources(t, n, shards)
	release, parked := make(chan struct{}), make(chan struct{})
	var once sync.Once
	for i := range srcs {
		// Block any scan reaching past the hot shard's half of the parent
		// order: only the cold shard's view reaches that deep.
		srcs[i] = deepBlockSource{src: srcs[i], release: release, minLo: n / 2,
			parked: parked, once: &once, gated: i == 1}
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-parked
		time.Sleep(30 * time.Millisecond) // room for the hot shard to finish and publish
		cancel()
	}()
	done := make(chan struct{})
	var rep *ShardReport
	var evalErr error
	start := time.Now()
	go func() {
		rep, evalErr = EvaluateSharded(ctx, A0{}, srcs, agg.Min, 10,
			shardedPrefetchConfig(shards, 2, 0))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("sharded evaluation did not return after cancellation; wedged fenced shard was not abandoned")
	}
	close(release) // only now may the wedged worker land its batch
	if !errors.Is(evalErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", evalErr)
	}
	var ab *AbandonedError
	if !errors.As(evalErr, &ab) {
		t.Fatalf("err %v does not expose *AbandonedError", evalErr)
	}
	if rep.Results != nil {
		t.Errorf("results on canceled evaluation: %v", rep.Results)
	}
	if got := sumCosts(rep.PerShard); got != rep.Cost {
		t.Errorf("total cost %v != per-shard sum %v", rep.Cost, got)
	}
	t.Logf("abandoned after %v", time.Since(start))
}

// TestShardedPrefetchCancellationWedgedBatch cancels a composed
// evaluation while a shard's pipeline has a wedged batch in flight and
// the shard's consumer is blocked waiting on it: the evaluation must
// abandon promptly (*AbandonedError wrapping context.Canceled) instead
// of waiting the subsystem out, and the report must still carry
// consistent partial tallies.
func TestShardedPrefetchCancellationWedgedBatch(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 2, Seed: 73}.MustGenerate()
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	srcs := sourcesOf(db)
	srcs[1] = atomicBlockSource{src: srcs[1], release: release, calls: &calls}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var rep *ShardReport
	var evalErr error
	start := time.Now()
	go func() {
		rep, evalErr = EvaluateSharded(ctx, A0{}, srcs, agg.Min, 10,
			shardedPrefetchConfig(2, 2, 32))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sharded evaluation did not return after cancellation; wedged batch was not abandoned")
	}
	if !errors.Is(evalErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", evalErr)
	}
	if rep.Results != nil {
		t.Errorf("results on canceled evaluation: %v", rep.Results)
	}
	if got := sumCosts(rep.PerShard); got != rep.Cost {
		t.Errorf("total cost %v != per-shard sum %v", rep.Cost, got)
	}
	t.Logf("abandoned after %v", time.Since(start))
}

// callGauge meters the physical calls into a set of sources: how many
// have started and how many are in flight right now.
type callGauge struct{ calls, inflight atomic.Int64 }

// gaugedSource passes every physical call on src through a callGauge.
type gaugedSource struct {
	src subsys.Source
	g   *callGauge
}

func (s gaugedSource) enter() func() {
	s.g.calls.Add(1)
	s.g.inflight.Add(1)
	return func() { s.g.inflight.Add(-1) }
}
func (s gaugedSource) Len() int { return s.src.Len() }
func (s gaugedSource) Entry(rank int) gradedset.Entry {
	defer s.enter()()
	return s.src.Entry(rank)
}
func (s gaugedSource) Entries(lo, hi int) []gradedset.Entry {
	defer s.enter()()
	return s.src.Entries(lo, hi)
}
func (s gaugedSource) Grade(obj int) float64 {
	defer s.enter()()
	return s.src.Grade(obj)
}

// gauged passes every source's physical calls through g.
func gauged(srcs []subsys.Source, g *callGauge) []subsys.Source {
	out := make([]subsys.Source, len(srcs))
	for i, src := range srcs {
		out[i] = gaugedSource{src: src, g: g}
	}
	return out
}

// quiet reports whether no call is in flight and none has started since
// the count `since` was read.
func (g *callGauge) quiet(since int64) bool {
	return g.inflight.Load() == 0 && g.calls.Load() == since
}

// settle waits for the sources to go quiet — nothing in flight and the
// call count unchanged across two consecutive polls — and returns that
// count. A condition, not a guess at how long in-flight batches take to
// land on a loaded box; it gives up only after seconds.
func (g *callGauge) settle(t *testing.T) int64 {
	t.Helper()
	last, held := int64(-1), 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := g.calls.Load(); g.quiet(last) {
			if held++; held == 2 {
				return n
			}
		} else {
			last, held = n, 0
		}
	}
	t.Fatalf("sources never went quiet: %d calls started, %d in flight", g.calls.Load(), g.inflight.Load())
	return 0
}

// requireDrained asserts the pipelines over the gauged sources are
// closed: once the in-flight batches have landed (settle), no further
// call may start.
func (g *callGauge) requireDrained(t *testing.T, after string) {
	t.Helper()
	before := g.settle(t)
	for poll := 0; poll < 20; poll++ {
		time.Sleep(time.Millisecond)
		if !g.quiet(before) {
			t.Errorf("pipelines still fetching after %s: %d -> %d calls, %d in flight",
				after, before, g.calls.Load(), g.inflight.Load())
			return
		}
	}
}

// TestShardedPrefetchBudgetExhaustion races budget exhaustion against
// shard fencing in the composed mode, repeatedly and with parallel
// shard workers (the CI suite runs it under -race): the stop must
// surface the typed *BudgetError, the shared reservation pool must
// never overshoot, and every shard's pipelines must be closed — no
// physical source calls after the evaluation returns beyond the
// in-flight batches.
func TestShardedPrefetchBudgetExhaustion(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 3, Seed: 74}.MustGenerate()
	full, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 10,
		ShardConfig{Shards: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(full.Cost.Sum()) / 8
	for round := 0; round < 8; round++ {
		srcs := latencySourcesOf(db, 50*time.Microsecond)
		var gauge callGauge
		srcs = gauged(srcs, &gauge)
		cfg := shardedPrefetchConfig(4, 4, 0)
		cfg.Budget = budget
		rep, err := EvaluateSharded(context.Background(), A0{}, srcs, agg.Min, 10, cfg)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("round %d: err = %v, want ErrBudgetExceeded", round, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("round %d: err %v does not expose *BudgetError", round, err)
		}
		if be.Spent > budget {
			t.Errorf("round %d: BudgetError.Spent = %v overshoots budget %v", round, be.Spent, budget)
		}
		if got := float64(rep.Cost.Sum()); got > budget {
			t.Errorf("round %d: global spend %v overshoots budget %v", round, got, budget)
		}
		if rep.Results != nil {
			t.Errorf("round %d: results on budget-stopped evaluation", round)
		}
		gauge.requireDrained(t, fmt.Sprintf("budget stop (round %d)", round))
	}
}

// TestShardedPaginatorPrefetchMatchesUnsharded drives the composed
// paginator — per-shard pipelines kept alive across pages — and pins
// its page sequence to the plain unsharded paginator's.
func TestShardedPaginatorPrefetchMatchesUnsharded(t *testing.T) {
	db := scoredb.Generator{N: 1200, M: 2, Seed: 75}.MustGenerate()
	ref, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	sp, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min,
		shardedPrefetchConfig(3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Release()
	if len(sp.slices) != 3 {
		t.Fatalf("paginator has %d slices, want 3", len(sp.slices))
	}
	for page := 0; page < 5; page++ {
		want, err := ref.NextPage(7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sp.NextPage(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("page %d: %d results sharded+prefetch, %d unsharded", page, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("page %d result %d: %v, want %v", page, i, got[i], want[i])
			}
		}
	}
}

// TestShardedPaginatorReleaseWithLivePipelines releases a composed
// paginator while every shard's pipelines are live (mid-pagination,
// slow sources still streaming): Release must stop all of them — the
// physical call counters settle — without hanging on in-flight batches.
func TestShardedPaginatorReleaseWithLivePipelines(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 2, Seed: 76}.MustGenerate()
	srcs := latencySourcesOf(db, 100*time.Microsecond)
	var gauge callGauge
	srcs = gauged(srcs, &gauge)
	sp, err := NewPaginator(context.Background(), A0{}, srcs, agg.Min,
		shardedPrefetchConfig(4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.NextPage(5); err != nil {
		t.Fatal(err)
	}
	if gauge.calls.Load() == 0 {
		t.Fatal("no physical calls after a page; pipelines never engaged")
	}
	done := make(chan struct{})
	go func() {
		sp.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Release hung on live per-shard pipelines")
	}
	gauge.requireDrained(t, "Release")
}
