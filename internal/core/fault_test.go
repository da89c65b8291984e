package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// errBackend is the terminal cause the test backends fail with.
var errBackend = errors.New("backend connection lost")

// permFail wraps a source with one deterministic permanent failure:
// sorted access fails whenever the requested span covers failRank
// (returning the partial prefix before it, per the FallibleSource
// contract), and random access fails for failObj. Either is disabled
// at -1. Unlike FaultSource it is stateless, so every executor —
// whatever its batching, readahead, or retry history — sees the
// identical failure surface.
type permFail struct {
	subsys.Source
	failRank int
	failObj  int
}

func (p *permFail) TryEntry(rank int) (gradedset.Entry, error) {
	if rank == p.failRank {
		return gradedset.Entry{}, errBackend
	}
	return p.Source.Entry(rank), nil
}

func (p *permFail) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	if p.failRank >= 0 && lo <= p.failRank && p.failRank < hi {
		return p.Source.Entries(lo, p.failRank), errBackend
	}
	return p.Source.Entries(lo, hi), nil
}

func (p *permFail) TryGrade(obj int) (float64, error) {
	if obj == p.failObj {
		return 0, errBackend
	}
	return p.Source.Grade(obj), nil
}

// failSourcesOf wraps one list of the database in a permFail.
func failSourcesOf(db *scoredb.Database, victim, failRank, failObj int) []subsys.Source {
	srcs := sourcesOf(db)
	srcs[victim] = &permFail{Source: srcs[victim], failRank: failRank, failObj: failObj}
	return srcs
}

// faultExecs is the parallel-executor palette the fault tests sweep.
func faultExecs() []*Pipelined {
	return []*Pipelined{
		{P: 2},
		{P: 3},
		{P: 2, MaxDepth: 8},
		{P: 3, MaxDepth: 2},
	}
}

// requireSourceError asserts err carries a *subsys.SourceError with the
// given fields and that the cause chain reaches errBackend.
func requireSourceError(t *testing.T, label string, err error, list, rank int, random bool) *subsys.SourceError {
	t.Helper()
	var se *subsys.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("%s: err = %v, want *subsys.SourceError", label, err)
	}
	if se.List != list || se.Rank != rank || se.Random != random || se.Attempts != 1 {
		t.Fatalf("%s: got SourceError{List:%d Rank:%d Random:%v Attempts:%d}, want {List:%d Rank:%d Random:%v Attempts:1}",
			label, se.List, se.Rank, se.Random, se.Attempts, list, rank, random)
	}
	if !errors.Is(err, errBackend) {
		t.Fatalf("%s: cause chain does not reach the backend error: %v", label, err)
	}
	return se
}

func TestPermanentSortedFaultIdenticalAcrossExecutors(t *testing.T) {
	// A permanent sorted-access failure at a demanded rank must surface
	// as the same typed error — same list, same rank, same access mode —
	// under every executor, with the same partial Section 5 tallies:
	// failure surfacing is demand-driven, and demand is
	// executor-invariant.
	db := scoredb.Generator{N: 60, M: 3, Law: scoredb.Uniform{}, Seed: 1}.MustGenerate()
	const victim, rank = 1, 2
	srcs := func() []subsys.Source { return failSourcesOf(db, victim, rank, -1) }

	res, wantCost, err := Evaluate(context.Background(), A0{}, srcs(), agg.Min, 40)
	requireSourceError(t, "serial", err, victim, rank, false)
	if res != nil {
		t.Fatalf("serial: results %v alongside the error", res)
	}
	if wantCost.Sum() == 0 {
		t.Fatal("serial: empty partial-cost report")
	}
	for _, x := range faultExecs() {
		got, c, err := Evaluate(context.Background(), A0{}, srcs(), agg.Min, 40, withExec(x)...)
		requireSourceError(t, execName(x), err, victim, rank, false)
		if got != nil {
			t.Errorf("%s: results %v alongside the error", execName(x), got)
		}
		if c != wantCost {
			t.Errorf("%s: partial cost %v, serial %v", execName(x), c, wantCost)
		}
	}
}

func TestPermanentRandomFaultIdenticalAcrossExecutors(t *testing.T) {
	// Anti-correlated lists: object 0 tops list 0 but sits last in
	// list 1, so A0's phase 2 random-probes it on list 1 under every
	// executor. Partial tallies are not compared: executors legitimately
	// differ in how much of a probe batch they pay for once the failure
	// is discovered mid-gather.
	const n = 40
	rows := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		rows[0][i] = 1 - float64(i)/float64(n+1)
		rows[1][i] = float64(i+1) / float64(n+1)
	}
	db, err := scoredb.FromMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	const victim, obj = 1, 0
	srcs := func() []subsys.Source { return failSourcesOf(db, victim, -1, obj) }

	_, _, serr := Evaluate(context.Background(), A0{}, srcs(), agg.Min, 3)
	requireSourceError(t, "serial", serr, victim, obj, true)
	for _, x := range faultExecs() {
		got, _, err := Evaluate(context.Background(), A0{}, srcs(), agg.Min, 3, withExec(x)...)
		requireSourceError(t, execName(x), err, victim, obj, true)
		if got != nil {
			t.Errorf("%s: results %v alongside the error", execName(x), got)
		}
	}
}

func TestPermanentFaultBeyondDemandIsInvisible(t *testing.T) {
	// A fault site no executor ever demands must not surface — even
	// though Pipelined's readahead physically reaches it. Readahead swallows the failure the
	// way it skips the meter: only delivery pays, only demand fails.
	db := scoredb.Generator{N: 200, M: 3, Law: scoredb.Uniform{}, Seed: 9}.MustGenerate()
	const victim = 0
	rank := db.N() - 1
	srcs := func() []subsys.Source { return failSourcesOf(db, victim, rank, -1) }

	want, wantCost, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 2)
	if err != nil {
		t.Fatalf("fault-free serial: %v", err)
	}
	for _, x := range append([]*Pipelined{nil}, faultExecs()...) {
		got, c, err := Evaluate(context.Background(), A0{}, srcs(), agg.Min, 2, withExec(x)...)
		if err != nil {
			t.Fatalf("%s: undemanded fault surfaced: %v", execName(x), err)
		}
		requireIdentical(t, execName(x), got, want, c, wantCost)
	}
}

func TestShardedPermanentFaultSurfacesAndSettles(t *testing.T) {
	// A permanent failure inside a sharded evaluation must surface as
	// the typed error, settle the budget pool, and release cleanly (the
	// -race run and goroutine exit at test end pin the absence of leaks).
	db := scoredb.Generator{N: 120, M: 3, Law: scoredb.Uniform{}, Seed: 3}.MustGenerate()
	const victim, rank = 1, 1
	srcs := func() []subsys.Source { return failSourcesOf(db, victim, rank, -1) }

	for _, par := range []int{1, 3} {
		cfg := ShardConfig{Shards: 4, Parallel: par}
		_, err := EvaluateSharded(context.Background(), A0{}, srcs(), agg.Min, 30, cfg)
		var se *subsys.SourceError
		if !errors.As(err, &se) || se.List != victim {
			t.Fatalf("Parallel=%d: err = %v, want a *subsys.SourceError on list %d", par, err, victim)
		}

		// With a budget on top, the reservation pool must still settle:
		// the run terminates with one of the two typed errors and never
		// overshoots the limit.
		for _, budget := range []float64{5, 40} {
			cfg.Budget = budget
			rep, err := EvaluateSharded(context.Background(), A0{}, srcs(), agg.Min, 30, cfg)
			var be *BudgetError
			if !errors.As(err, &se) && !errors.As(err, &be) {
				t.Fatalf("Parallel=%d, budget %v: err = %v, want SourceError or BudgetError", par, budget, err)
			}
			if rep != nil && float64(rep.Cost.Sum()) > budget {
				t.Errorf("Parallel=%d, budget %v: pool overshoot: spent %v", par, budget, rep.Cost.Sum())
			}
		}
	}
}

// resilientFaultySources wraps every list of the database in a seeded
// transient FaultSource behind a Resilient retry layer deep enough to
// absorb every fault. Fresh wrappers per call: FaultSource is stateful.
func resilientFaultySources(db *scoredb.Database, seed uint64, rate float64, transient int, pol subsys.Policy) func() []subsys.Source {
	return func() []subsys.Source {
		raw := sourcesOf(db)
		out := make([]subsys.Source, len(raw))
		for i, s := range raw {
			f := subsys.NewFaultSource(s, subsys.FaultPlan{
				Seed:      seed + uint64(i)*0x9e3779b97f4a7c15,
				Rate:      rate,
				Transient: transient,
			})
			out[i] = subsys.Resilient(f, pol)
		}
		return out
	}
}

func TestResilientTransientFaultsInvisibleAcrossExecutors(t *testing.T) {
	// Transient faults behind a Resilient wrapper with MaxRetries ≥
	// Transient are completely absorbed: results AND Section 5 tallies
	// are bit-identical to the fault-free run under every executor and
	// under sharding — a retried access is still one metered access.
	db := scoredb.Generator{N: 90, M: 3, Law: scoredb.Discrete{Levels: 4}, Seed: 17}.MustGenerate()
	faulty := resilientFaultySources(db, 0xfa61, 0.2, 2, subsys.Policy{MaxRetries: 2})

	want, wantCost, err := Evaluate(context.Background(), TA{}, sourcesOf(db), agg.Min, 25)
	if err != nil {
		t.Fatalf("fault-free serial: %v", err)
	}
	for _, x := range append([]*Pipelined{nil}, faultExecs()...) {
		got, c, err := Evaluate(context.Background(), TA{}, faulty(), agg.Min, 25, withExec(x)...)
		if err != nil {
			t.Fatalf("%s: %v", execName(x), err)
		}
		requireIdentical(t, execName(x), got, want, c, wantCost)
	}

	cfg := ShardConfig{Shards: 3, Parallel: 1}
	clean, err := EvaluateSharded(context.Background(), TA{}, sourcesOf(db), agg.Min, 25, cfg)
	if err != nil {
		t.Fatalf("fault-free sharded: %v", err)
	}
	rep, err := EvaluateSharded(context.Background(), TA{}, faulty(), agg.Min, 25, cfg)
	if err != nil {
		t.Fatalf("faulty sharded: %v", err)
	}
	if rep.Cost != clean.Cost {
		t.Errorf("sharded cost %v, fault-free %v", rep.Cost, clean.Cost)
	}
	for i := range clean.Results {
		if rep.Results[i] != clean.Results[i] {
			t.Errorf("sharded result %d: %v, fault-free %v", i, rep.Results[i], clean.Results[i])
		}
	}
}

func TestFaultRacingShardFence(t *testing.T) {
	// Parallel sharded evaluation: the threshold-aware merge fences
	// shard lists while fault-retry cycles are in flight on the other
	// shard workers. Transient faults are
	// absorbed, so every iteration must satisfy the shard-equivalence
	// contract against the fault-free unsharded reference. Run with
	// -race; iterations vary goroutine interleaving.
	db := scoredb.Generator{N: 150, M: 3, Law: scoredb.Uniform{}, Seed: 21}.MustGenerate()
	want, _, err := Evaluate(context.Background(), TA{}, sourcesOf(db), agg.Min, 12)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueScorer(db, agg.Min)
	for it := 0; it < 10; it++ {
		faulty := resilientFaultySources(db, 0xbeef+uint64(it), 0.15, 1, subsys.Policy{MaxRetries: 2})
		rep, err := EvaluateSharded(context.Background(), TA{}, faulty(), agg.Min, 12,
			ShardConfig{Shards: 4, Parallel: 3})
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		requireShardEquiv(t, "fence-race", want, rep.Results, truth)
	}
}

func TestWedgedBatchTimedOutAndRetried(t *testing.T) {
	// A wedged source call mid-batch under the pipelined executor: the
	// Resilient per-access timeout abandons the hung call, the retry
	// clears the (transient) fault, and the evaluation completes with
	// fault-free results — without waiting out the wedge.
	db := scoredb.Generator{N: 80, M: 3, Law: scoredb.Uniform{}, Seed: 5}.MustGenerate()
	want, wantCost, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 10)
	if err != nil {
		t.Fatal(err)
	}
	faulty := func() []subsys.Source {
		raw := sourcesOf(db)
		out := make([]subsys.Source, len(raw))
		for i, s := range raw {
			f := subsys.NewFaultSource(s, subsys.FaultPlan{
				Seed: 0xedce + uint64(i), Rate: 0.15, Transient: 1, Wedge: 200 * time.Millisecond,
			})
			// The timeout sits far below the wedge (so abandonment, not
			// patience, is what finishes the run) but far enough above zero
			// that a healthy access delayed by a busy scheduler — the race
			// detector on a loaded single core — is never misread as wedged.
			// The retry budget needs headroom over the rate: an abandoned
			// attempt delivers no partial span, so a run of c consecutive
			// wedged ranks inside one batch costs c no-progress attempts
			// before the batch advances.
			out[i] = subsys.Resilient(f, subsys.Policy{MaxRetries: 6, PerAccessTimeout: 20 * time.Millisecond})
		}
		return out
	}
	start := time.Now()
	got, c, err := Evaluate(context.Background(), A0{}, faulty(), agg.Min, 10,
		WithExecutor(Pipelined{P: 2, MaxDepth: 4}))
	if err != nil {
		t.Fatalf("wedged evaluation failed: %v", err)
	}
	requireIdentical(t, "wedged", got, want, c, wantCost)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("evaluation waited out the wedges: %v", elapsed)
	}
}

func TestBreakerTripRacingBudgetExhaustion(t *testing.T) {
	// Permanent faults behind a tripping breaker, a tight access budget,
	// and a parallel executor: whichever limit strikes first, the
	// evaluation must terminate promptly with one of the two typed
	// errors and never overshoot the budget. Iterations vary the fault
	// plan so the race lands on different sides; run with -race.
	db := scoredb.Generator{N: 100, M: 3, Law: scoredb.Uniform{}, Seed: 11}.MustGenerate()
	for it := 0; it < 20; it++ {
		srcs := make([]subsys.Source, db.M())
		for i := range srcs {
			f := subsys.NewFaultSource(subsys.FromList(db.List(i)), subsys.FaultPlan{
				Seed: uint64(it)*31 + uint64(i), Rate: 0.3,
			})
			srcs[i] = subsys.Resilient(f, subsys.Policy{
				Breaker: subsys.Breaker{FailureThreshold: 2, Cooldown: time.Hour},
			})
		}
		const budget = 25
		res, c, err := Evaluate(context.Background(), TA{}, srcs, agg.Min, 20,
			WithExecutor(Pipelined{P: 3}), WithAccessBudget(budget))
		if err == nil {
			t.Fatalf("iteration %d: evaluation beat both the faults and the budget: %v", it, res)
		}
		var se *subsys.SourceError
		var be *BudgetError
		if !errors.As(err, &se) && !errors.As(err, &be) {
			t.Fatalf("iteration %d: err = %v, want SourceError or BudgetError", it, err)
		}
		if float64(c.Sum()) > budget {
			t.Errorf("iteration %d: budget overshoot: spent %v of %v", it, c.Sum(), budget)
		}
	}
}

// shortSpan is a plain Source that breaks the sorted contract: its
// stream ends at rank end, short of Len(), without an error to say so.
type shortSpan struct {
	subsys.Source
	end int
}

func (s shortSpan) Entry(rank int) gradedset.Entry {
	if rank >= s.end {
		return gradedset.Entry{}
	}
	return s.Source.Entry(rank)
}

func (s shortSpan) Entries(lo, hi int) []gradedset.Entry {
	return s.Source.Entries(min(lo, s.end), min(hi, s.end))
}

// TestShortSpanIsSourceError: a source whose sorted span comes back
// short without an error has failed, not ended. Under the serial and
// pipelined executors and a 2-shard evaluation alike the run returns a
// *SourceError on that list, never a top k over a truncated stream.
func TestShortSpanIsSourceError(t *testing.T) {
	db := scoredb.Generator{N: 200, M: 3, Law: scoredb.Uniform{}, Seed: 4}.MustGenerate()
	const victim, k = 1, 20
	srcs := func() []subsys.Source {
		s := sourcesOf(db)
		s[victim] = shortSpan{Source: s[victim], end: 5}
		return s
	}
	ctx := context.Background()
	sharded := func(cfg ShardConfig) func() ([]Result, error) {
		return func() ([]Result, error) {
			sr, err := EvaluateSharded(ctx, A0{}, srcs(), agg.Min, k, cfg)
			return sr.Results, err
		}
	}
	for _, run := range []struct {
		name string
		eval func() ([]Result, error)
	}{
		{"serial", func() ([]Result, error) {
			res, _, err := Evaluate(ctx, A0{}, srcs(), agg.Min, k)
			return res, err
		}},
		{"pipelined", func() ([]Result, error) {
			res, _, err := Evaluate(ctx, A0{}, srcs(), agg.Min, k, WithExecutor(Pipelined{P: 2}))
			return res, err
		}},
		{"2 shards", sharded(ShardConfig{Shards: 2, Parallel: 1})},
		{"2 shards, 2 workers", sharded(ShardConfig{Shards: 2, Parallel: 2})},
	} {
		res, err := run.eval()
		var se *subsys.SourceError
		if !errors.As(err, &se) || se.List != victim || se.Random {
			t.Errorf("%s: err = %v, want a sorted *subsys.SourceError on list %d", run.name, err, victim)
		}
		if res != nil {
			t.Errorf("%s: %d results alongside the error", run.name, len(res))
		}
	}
}
