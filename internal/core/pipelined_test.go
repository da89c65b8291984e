package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

func latencySourcesOf(db *scoredb.Database, perCall time.Duration) []subsys.Source {
	srcs := sourcesOf(db)
	for i := range srcs {
		srcs[i] = subsys.NewLatencySource(srcs[i], perCall)
	}
	return srcs
}

// TestPipelinedBudgetMidBatch runs the pipelined executor under a budget
// far below the evaluation's natural cost, over slow sources so batches
// are genuinely in flight when the budget trips. The stop must surface
// the typed *BudgetError, never overshoot (prefetched-but-undelivered
// ranks cost nothing), and close the pipelines: no further physical
// source calls may be issued after the evaluation returns.
func TestPipelinedBudgetMidBatch(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 3, Seed: 61}.MustGenerate()
	_, full, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 20)
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(full.Sum()) / 10
	srcs := latencySourcesOf(db, 100*time.Microsecond)
	var gauge callGauge
	srcs = gauged(srcs, &gauge)
	res, partial, err := Evaluate(context.Background(), A0{}, srcs, agg.Min, 20,
		WithAccessBudget(budget), WithExecutor(Pipelined{P: 4, MaxDepth: 32}))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not expose *BudgetError", err)
	}
	if be.Spent > budget {
		t.Errorf("BudgetError.Spent = %v overshoots budget %v", be.Spent, budget)
	}
	if res != nil {
		t.Errorf("results on budget-stopped evaluation: %v", res)
	}
	if got := float64(partial.Sum()); got > budget {
		t.Errorf("partial cost %v overshoots budget %v", got, budget)
	}
	if partial.Sum() == 0 {
		t.Error("partial cost is zero; budget stopped before any access")
	}
	// Never prefetch past a reservation failure.
	gauge.requireDrained(t, "budget stop")
}

// TestPipelinedFenceWhileStreaming fences every list mid-evaluation —
// the threshold-stop move of a sharded driver — while background
// pipelines are streaming. The fence must drain the pipelines (no
// further source calls once in-flight batches land), and the algorithm
// must complete cleanly over the objects seen before the fence.
func TestPipelinedFenceWhileStreaming(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 2, Seed: 62}.MustGenerate()
	srcs := latencySourcesOf(db, 50*time.Microsecond)
	var gauge callGauge
	srcs = gauged(srcs, &gauge)
	counted := subsys.CountAll(srcs)
	ec := NewExecContext(context.Background(), counted, WithExecutor(Pipelined{P: 4, MaxDepth: 16}))
	rounds := 0
	ec.stop = func(cursors []*subsys.Cursor) bool {
		rounds++
		return rounds > 5
	}
	res, err := (A0{}).TopK(ec, counted, agg.Min, 10)
	if err != nil {
		t.Fatalf("fenced evaluation failed: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("fenced evaluation returned nothing; completion phase did not run")
	}
	for i, l := range counted {
		if !l.Fenced() {
			t.Errorf("list %d not fenced", i)
		}
	}
	gauge.requireDrained(t, "fence")
	subsys.ReleaseAll(counted)
}

// TestPipelinedCancellationAbandonsWedgedBatch wedges one source's
// sorted access (every batch after the first parks on a channel) under
// the pipelined executor: cancellation must abandon the in-flight batch
// and return promptly rather than waiting the subsystem out.
func TestPipelinedCancellationAbandonsWedgedBatch(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 2, Seed: 63}.MustGenerate()
	release := make(chan struct{})
	defer close(release) // let the abandoned worker finish
	calls := 0
	srcs := sourcesOf(db)
	srcs[1] = blockSource{src: srcs[1], release: release, first: true, calls: &calls}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var evalErr error
	start := time.Now()
	go func() {
		_, _, evalErr = Evaluate(ctx, A0{}, srcs, agg.Min, 10,
			WithExecutor(Pipelined{P: 2, MaxDepth: 64}))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation did not return after cancellation; wedged batch was not abandoned")
	}
	if !errors.Is(evalErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", evalErr)
	}
	var ab *AbandonedError
	if !errors.As(evalErr, &ab) {
		t.Fatalf("err %v does not expose *AbandonedError", evalErr)
	}
	t.Logf("abandoned after %v", time.Since(start))
}

// TestPipelinedDepthCapHonored pins the adaptive policy's bounds: on a
// slow source the depth must grow past its starting value (stalls drive
// doubling) yet never exceed the configured cap, and the stats must
// witness both the stalls and the batching.
func TestPipelinedDepthCapHonored(t *testing.T) {
	db := scoredb.Generator{N: 8192, M: 2, Seed: 64}.MustGenerate()
	srcs := latencySourcesOf(db, 200*time.Microsecond)
	counted := subsys.CountAll(srcs)
	const depthCap = 8
	ec := NewExecContext(context.Background(), counted, WithExecutor(Pipelined{P: 4, MaxDepth: depthCap}))
	if _, err := (A0{}).TopK(ec, counted, agg.Min, 10); err != nil {
		t.Fatal(err)
	}
	for i, l := range counted {
		s, ok := l.PrefetchStats()
		if !ok {
			t.Fatalf("list %d: no pipeline stats", i)
		}
		if s.MaxDepth > depthCap {
			t.Errorf("list %d: depth %d exceeds cap %d", i, s.MaxDepth, depthCap)
		}
		if s.MaxDepth < 2 {
			t.Errorf("list %d: depth never grew past 1 on a stalling source (max %d)", i, s.MaxDepth)
		}
		if s.Stalls == 0 {
			t.Errorf("list %d: no stalls recorded on a 200µs source", i)
		}
		if s.Batches == 0 {
			t.Errorf("list %d: no batches recorded", i)
		}
	}
	subsys.ReleaseAll(counted)
}

// TestPipelinedHidesLatency is the wall-clock smoke check of the
// executor's purpose: over sources with per-call latency, the pipelined
// executor must beat the serial one by a comfortable factor (the
// benchmarks record the full-size figures; here the margin is kept
// loose so the test is robust under -race and on loaded machines).
func TestPipelinedHidesLatency(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 3, Seed: 65}.MustGenerate()
	const perCall = 200 * time.Microsecond

	srcs := latencySourcesOf(db, perCall)
	start := time.Now()
	want, wantCost, err := Evaluate(context.Background(), A0{}, srcs, agg.Min, 10)
	serialWall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	srcs = latencySourcesOf(db, perCall)
	start = time.Now()
	got, gotCost, err := Evaluate(context.Background(), A0{}, srcs, agg.Min, 10,
		WithExecutor(Pipelined{P: 64}))
	pipeWall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	requireIdentical(t, "latency", got, want, gotCost, wantCost)
	t.Logf("serial %v, pipelined %v (%.1fx)", serialWall, pipeWall, float64(serialWall)/float64(pipeWall))
	if pipeWall*2 > serialWall {
		t.Errorf("pipelined executor did not hide latency: %v vs serial %v", pipeWall, serialWall)
	}
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

// TestPaginatorReleaseWithLivePipelines releases a pipelined paginator
// mid-pagination, its pipelines still streaming from slow sources:
// Release must stop them — the physical call counters settle — without
// hanging on in-flight batches.
func TestPaginatorReleaseWithLivePipelines(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 2, Seed: 76}.MustGenerate()
	var gauge callGauge
	srcs := gauged(latencySourcesOf(db, 100*time.Microsecond), &gauge)
	p, err := NewPaginator(context.Background(), A0{}, srcs, agg.Min, ShardConfig{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NextPage(5); err != nil {
		t.Fatal(err)
	}
	if gauge.calls.Load() == 0 {
		t.Fatal("no physical calls after a page; pipelines never engaged")
	}
	done := make(chan struct{})
	go func() {
		p.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Release hung on live pipelines")
	}
	gauge.requireDrained(t, "Release")
}
