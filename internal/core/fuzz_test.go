package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// FuzzExecutorEquivalence is the randomized cross-executor equivalence
// harness — the property, fuzzed: every execution strategy the engine
// offers is a transport change only. One fuzz input seeds a PRNG that
// draws a whole scenario — universe size and grade law (dense fast path
// or the map/sparse fallback), arity m, k, the aggregation law, the
// algorithm, executor parameters, a shard count, and optionally an
// access budget — and the harness then cross-checks, in the spirit of
// fusion-rule cross-validation, that
//
//   - serial and pipelined (at the width WithParallelism lowers to, and
//     under two drawn readahead caps) unsharded evaluations return
//     byte-identical results and identical Section 5 tallies;
//   - the even-cut sharded evaluation, at Parallel=1 and on parallel
//     shard workers, satisfies the shard-equivalence contract
//     (identical grade sequence, same objects above the k-th grade,
//     exact no-duplicate ground truth in the k-th tie class) against
//     the unsharded reference;
//   - under a budget, every executor stops at the same typed
//     *BudgetError with the same spend, never overshooting, and so does
//     the sharded reservation pool;
//   - transient faults behind a deep-enough Resilient wrapper are
//     invisible — results and tallies bit-identical to fault-free
//     everywhere — and a single permanent fault site yields the same
//     outcome under every executor: clean when serial never demands the
//     site (readahead past it must swallow), the identical typed
//     *subsys.SourceError when it does (the sharded run, which demands
//     other ranks, is clean bit for bit or fails on the victim list);
//   - page one of the paginator is the one-shot answer, identical to
//     the serial evaluation.
//
// Run with `go test -fuzz FuzzExecutorEquivalence ./internal/core`; the
// committed corpus under testdata/fuzz covers the interesting regimes
// (heavy Binary/Discrete ties straddling shard boundaries, P clamped by
// tiny universes, k = N, budget stops, tiny readahead caps).
func FuzzExecutorEquivalence(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1996, 0x5eed, 0xfa61, 0xdeadbeef, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(fuzzExecutorEquivalence)
}

// fuzzLaws is the grade-law palette the fuzzer draws from: continuous
// (almost surely tie-free), bounded, and the two heavy-tie regimes.
var fuzzLaws = []scoredb.GradeLaw{
	scoredb.Uniform{},
	scoredb.BoundedAbove{Max: 0.8},
	scoredb.Binary{P: 0.12},
	scoredb.Discrete{Levels: 4},
}

// fuzzCases is the algorithm × aggregation-law palette. Its length and
// order are fixed: a seed draws its slot with rng.Intn(len(fuzzCases)),
// so a retired entry is replaced in place, never removed, and every
// committed seed keeps drawing the same scenario around it.
var fuzzCases = []struct {
	alg Algorithm
	f   agg.Func
}{
	{A0{}, agg.Min},
	{A0{}, agg.AlgebraicProduct},
	{A0{}, agg.ArithmeticMean},
	{TA{}, agg.ArithmeticMean},
	{TA{}, agg.Min},
	{TA{}, agg.AlgebraicProduct},
	{TA{}, agg.BoundedDifference},
	{A0Prime{}, agg.Min},
	{A0{}, agg.GeometricMean},
	{B0{}, agg.Max},
	{NaiveSorted{}, agg.Min},
	{OrderStat{}, agg.Median},
}

func fuzzExecutorEquivalence(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 2 + rng.Intn(280)
	m := 2 + rng.Intn(3)
	law := fuzzLaws[rng.Intn(len(fuzzLaws))]
	tc := fuzzCases[rng.Intn(len(fuzzCases))]
	k := 1 + rng.Intn(n)
	shards := 2 + rng.Intn(6) // may exceed n: exercises the clamp
	depth := rng.Intn(7)      // a readahead cap; 0 = the default
	width := 1 + rng.Intn(8)
	_ = rng.Intn(24) // a retired executor's knob; drawn so committed seeds build the same scenario
	p := 1 + rng.Intn(m+2)
	sparse := rng.Intn(2) == 1 // map fallback instead of the dense path

	db := scoredb.Generator{N: n, M: m, Law: law, Seed: seed ^ 0x9e3779b97f4a7c15}.MustGenerate()
	srcs := func() []subsys.Source {
		if sparse {
			return opaqueSourcesOf(db)
		}
		return sourcesOf(db)
	}
	label := fmt.Sprintf("seed=%d/N=%d/m=%d/%s/%s-%s/k=%d/P=%d/depth=%d/sparse=%v",
		seed, n, m, law.Name(), tc.alg.Name(), tc.f.Name(), k, shards, depth, sparse)

	// Unsharded reference, then every executor against it.
	want, wantCost, err := Evaluate(context.Background(), tc.alg, srcs(), tc.f, k)
	if err != nil {
		t.Fatalf("%s: serial: %v", label, err)
	}
	execs := []*Pipelined{
		{P: p},
		{P: width, MaxDepth: 1 + rng.Intn(16)},
		{P: width, MaxDepth: 1 + depth},
	}
	for _, x := range execs {
		got, gotCost, err := Evaluate(context.Background(), tc.alg, srcs(), tc.f, k, withExec(x)...)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, execName(x), err)
		}
		requireIdentical(t, label+"/"+execName(x), got, want, gotCost, wantCost)
	}

	// Sharded on the even cut, at the deterministic worker cap and on
	// parallel shard workers: the shard-equivalence contract against the
	// unsharded reference, per-shard tallies that sum to the total.
	serialCfg := ShardConfig{Shards: shards, Parallel: 1}
	sSerial, err := EvaluateSharded(context.Background(), tc.alg, srcs(), tc.f, k, serialCfg)
	if err != nil {
		t.Fatalf("%s: sharded serial: %v", label, err)
	}
	truth := trueScorer(db, tc.f)
	requireShardEquiv(t, label+"/sharded", want, sSerial.Results, truth)
	sPar, err := EvaluateSharded(context.Background(), tc.alg, srcs(), tc.f, k,
		ShardConfig{Shards: shards, Parallel: 1 + rng.Intn(4)})
	if err != nil {
		t.Fatalf("%s: sharded parallel: %v", label, err)
	}
	requireShardEquiv(t, label+"/sharded-par", want, sPar.Results, truth)
	_, _ = rng.Intn(2), rng.Intn(2) // retired legs' knobs (per-shard prefetch, sketch cut); drawn so committed seeds build the same scenario
	sWorkers, err := EvaluateSharded(context.Background(), tc.alg, srcs(), tc.f, k,
		ShardConfig{Shards: shards, Parallel: 2 + rng.Intn(3)})
	if err != nil {
		t.Fatalf("%s: sharded workers: %v", label, err)
	}
	requireShardEquiv(t, label+"/sharded-workers", want, sWorkers.Results, truth)
	var perShard cost.Cost
	for _, c := range sWorkers.PerShard {
		perShard = perShard.Add(c)
	}
	if perShard != sWorkers.Cost {
		t.Errorf("%s: per-shard costs sum to %v, total %v", label, perShard, sWorkers.Cost)
	}

	// Pagination runs on the same slice driver, so page one is the
	// one-shot answer: the serial results at the serial cost. This leg
	// draws nothing from rng.
	pag, err := NewPaginator(context.Background(), tc.alg, srcs(), tc.f, ShardConfig{})
	if err != nil {
		t.Fatalf("%s: paginator: %v", label, err)
	}
	page, err := pag.NextPage(k)
	if err != nil {
		t.Fatalf("%s: page one: %v", label, err)
	}
	requireIdentical(t, label+"/page-one", page, want, pag.Cost(), wantCost)
	pag.Release()

	// Budgets: every executor must stop at the same typed *BudgetError
	// with the same spend — or all complete identically.
	if full := wantCost.Sum(); full > 4 && rng.Intn(2) == 0 {
		budget := 1 + float64(rng.Intn(full))
		wantRes, wantPartial, wantErr := Evaluate(context.Background(), tc.alg, srcs(), tc.f, k,
			WithAccessBudget(budget))
		if wantPartial.Sum() > int(budget) {
			t.Errorf("%s: serial budget overshoot: %v > %v", label, wantPartial.Sum(), budget)
		}
		for _, x := range execs {
			got, gotCost, err := Evaluate(context.Background(), tc.alg, srcs(), tc.f, k,
				withExec(x, WithAccessBudget(budget))...)
			if !sameBudgetOutcome(err, wantErr) {
				t.Fatalf("%s: %s budget err = %v, serial %v", label, execName(x), err, wantErr)
			}
			if wantErr == nil {
				requireIdentical(t, label+"/budget/"+execName(x), got, wantRes, gotCost, wantPartial)
			} else if gotCost != wantPartial {
				t.Errorf("%s: %s budget partial cost %v, serial %v", label, execName(x), gotCost, wantPartial)
			}
		}
		// The sharded reservation pool never overshoots, and stops only
		// with the typed *BudgetError.
		bSerial := serialCfg
		bSerial.Budget = budget
		rSerial, errSerial := EvaluateSharded(context.Background(), tc.alg, srcs(), tc.f, k, bSerial)
		if errSerial != nil && !errors.Is(errSerial, ErrBudgetExceeded) {
			t.Fatalf("%s: sharded budget err = %v, want ErrBudgetExceeded", label, errSerial)
		}
		if rSerial.Cost.Sum() > int(budget) {
			t.Errorf("%s: sharded pool overshoot: %v > %v", label, rSerial.Cost.Sum(), budget)
		}
	}

	// Fault dimension 1 — transient faults behind a Resilient wrapper
	// deep enough to absorb them are invisible: results and tallies
	// bit-identical to the fault-free reference under every executor and
	// under sharding. A retried access is still one metered access.
	// Fresh wrappers per evaluation: FaultSource clears transient sites
	// statefully.
	if rng.Intn(2) == 0 {
		transient := 1 + rng.Intn(2)
		pol := subsys.Policy{MaxRetries: transient + rng.Intn(2)}
		rate := 0.05 + 0.3*rng.Float64()
		fseed := seed ^ 0xfa610f
		faulty := func() []subsys.Source {
			raw := srcs()
			out := make([]subsys.Source, len(raw))
			for i, s := range raw {
				out[i] = subsys.Resilient(subsys.NewFaultSource(s, subsys.FaultPlan{
					Seed:      fseed + uint64(i)*0x9e3779b97f4a7c15,
					Rate:      rate,
					Transient: transient,
				}), pol)
			}
			return out
		}
		for _, x := range append([]*Pipelined{nil}, execs...) {
			got, gotCost, err := Evaluate(context.Background(), tc.alg, faulty(), tc.f, k, withExec(x)...)
			if err != nil {
				t.Fatalf("%s: transient faults leaked through %s: %v", label, execName(x), err)
			}
			requireIdentical(t, label+"/faulty/"+execName(x), got, want, gotCost, wantCost)
		}
		fSharded, err := EvaluateSharded(context.Background(), tc.alg, faulty(), tc.f, k, serialCfg)
		if err != nil {
			t.Fatalf("%s: transient faults leaked through sharded: %v", label, err)
		}
		if fSharded.Cost != sSerial.Cost {
			t.Errorf("%s: sharded faulty cost %v, fault-free %v", label, fSharded.Cost, sSerial.Cost)
		}
		for i := range sSerial.Results {
			if fSharded.Results[i] != sSerial.Results[i] {
				t.Errorf("%s: sharded faulty result %d: %v, fault-free %v", label, i, fSharded.Results[i], sSerial.Results[i])
			}
		}
	}

	// Fault dimension 2 — one permanent single-site failure (a random
	// rank or object on a random list): every unsharded executor must
	// reach the same outcome as serial. Clean if serial never demanded
	// the site — readahead past it must stay invisible — and otherwise
	// the identical typed *subsys.SourceError, with the same partial
	// tallies when the failure struck the sorted stream (mid-gather
	// random failures legitimately cut probe-batch payment differently).
	// Sharded runs demand different parent ranks, so only the two shard
	// configurations are compared with each other.
	if rng.Intn(2) == 0 {
		victim := rng.Intn(m)
		failRank, failObj := -1, -1
		if rng.Intn(2) == 0 {
			failRank = rng.Intn(n)
		} else {
			failObj = rng.Intn(n)
		}
		fsrcs := func() []subsys.Source {
			raw := srcs()
			raw[victim] = &permFail{Source: raw[victim], failRank: failRank, failObj: failObj}
			return raw
		}
		flabel := fmt.Sprintf("%s/perm[list=%d,rank=%d,obj=%d]", label, victim, failRank, failObj)
		wRes, wCost, wErr := Evaluate(context.Background(), tc.alg, fsrcs(), tc.f, k)
		var wSE *subsys.SourceError
		if wErr != nil && !errors.As(wErr, &wSE) {
			t.Fatalf("%s: serial err = %v, want *subsys.SourceError", flabel, wErr)
		}
		for _, x := range execs {
			gRes, gCost, gErr := Evaluate(context.Background(), tc.alg, fsrcs(), tc.f, k, withExec(x)...)
			if (gErr == nil) != (wErr == nil) {
				t.Fatalf("%s: %s err = %v, serial %v", flabel, execName(x), gErr, wErr)
			}
			if wErr == nil {
				requireIdentical(t, flabel+"/"+execName(x), gRes, wRes, gCost, wCost)
				continue
			}
			var gSE *subsys.SourceError
			if !errors.As(gErr, &gSE) {
				t.Fatalf("%s: %s err = %v, want *subsys.SourceError", flabel, execName(x), gErr)
			}
			if gSE.List != wSE.List || gSE.Rank != wSE.Rank || gSE.Random != wSE.Random || gSE.Attempts != wSE.Attempts {
				t.Errorf("%s: %s SourceError %+v, serial %+v", flabel, execName(x), gSE, wSE)
			}
			if gRes != nil {
				t.Errorf("%s: %s results alongside the error", flabel, execName(x))
			}
			if !wSE.Random && gCost != wCost {
				t.Errorf("%s: %s partial cost %v, serial %v", flabel, execName(x), gCost, wCost)
			}
		}
		pSerial, errS := EvaluateSharded(context.Background(), tc.alg, fsrcs(), tc.f, k, serialCfg)
		if errS == nil {
			// The fault site was never demanded by any shard: the run must
			// match the fault-free sharded reference bit for bit.
			if pSerial.Cost != sSerial.Cost {
				t.Errorf("%s: sharded clean-path cost %v, fault-free %v", flabel, pSerial.Cost, sSerial.Cost)
			}
			for i := range sSerial.Results {
				if pSerial.Results[i] != sSerial.Results[i] {
					t.Errorf("%s: sharded clean-path result %d diverged", flabel, i)
				}
			}
		} else if sSE := (*subsys.SourceError)(nil); !errors.As(errS, &sSE) || sSE.List != victim {
			t.Errorf("%s: sharded err = %v, want a *subsys.SourceError on list %d", flabel, errS, victim)
		}
	}
}

// sameBudgetOutcome reports whether two evaluations ended the same way:
// both clean, or both stopped by the budget with identical limits and
// spends.
func sameBudgetOutcome(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	var ba, bb *BudgetError
	if !errors.As(a, &ba) || !errors.As(b, &bb) {
		return false
	}
	return ba.Limit == bb.Limit && ba.Spent == bb.Spent && ba.Need == bb.Need
}
