package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// TestStealEquivalence is the work-stealing correctness contract: with
// stealing enabled, parallel shard workers splitting each other's
// remaining ranges mid-flight must still satisfy the shard-equivalence
// contract against the unsharded reference — identical grade sequence,
// identical objects above the k-th grade, exact no-duplicate ground
// truth in the k-th tie class. Repeated trials vary the racy split
// timing; the answers must never.
func TestStealEquivalence(t *testing.T) {
	type scen struct {
		name string
		db   *scoredb.Database
	}
	scens := []scen{
		{"uniform", scoredb.Generator{N: 3000, M: 3, Seed: 91}.MustGenerate()},
		{"skewed", skewedDB(t, 3000, 400)},
		{"ties", tieDB(t, 600, 2, 100, 400, 0.4)},
	}
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{TA{}, agg.Min},
	}
	for _, sc := range scens {
		truthMin := trueScorer(sc.db, agg.Min)
		for _, tc := range algs {
			for _, k := range []int{1, 10, 120} {
				if k > sc.db.N() {
					continue
				}
				want, _, err := Evaluate(context.Background(), tc.alg, sourcesOf(sc.db), tc.f, k)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 5; trial++ {
					label := fmt.Sprintf("%s/%s/k=%d/trial=%d", sc.name, tc.alg.Name(), k, trial)
					sr, err := EvaluateSharded(context.Background(), tc.alg, sourcesOf(sc.db), tc.f, k,
						ShardConfig{Shards: 4, Parallel: 4, Steal: true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireShardEquiv(t, label, want, sr.Results, truthMin)
					if sr.Stolen < 0 {
						t.Errorf("%s: negative steal count %d", label, sr.Stolen)
					}
					var details int
					for _, d := range sr.Details {
						details += d.Steals
					}
					if details != sr.Stolen {
						t.Errorf("%s: per-shard steals sum %d, total %d", label, details, sr.Stolen)
					}
				}
			}
		}
	}
}

// lopsidedDB builds the workload stealing exists for, split at n/2 into
// a quick half and a slow half. The quick half holds `gold` objects
// whose list-1 grades sit at the very top of the list (their shard's
// lazy re-rank reaches them almost for free) but whose list-2 grades
// sit just below the slow shard's eventual stopping threshold — so the
// quick shard resolves its local top-k after a modest scan and the
// k-th grade it publishes is too low to fence anybody. The slow half's
// grades are high but decorrelated between the lists, so its shard
// needs hundreds of sorted rounds to intersect and never fences. By
// the time the quick worker goes idle, the slow shard still has most
// of its rounds ahead, and splitting it is the only way to help.
func lopsidedDB(t testing.TB, n, gold int) *scoredb.Database {
	t.Helper()
	half := n / 2
	e1 := make([]gradedset.Entry, n)
	e2 := make([]gradedset.Entry, n)
	for i := 0; i < n; i++ {
		var g1, g2 float64
		switch {
		case i < gold:
			g1 = 0.998 + 0.002*float64(gold-i)/float64(gold+1)
			g2 = 0.880 + 0.020*float64(gold-i)/float64(gold+1)
		case i < half:
			g1 = 0.25 * float64(half-i) / float64(half)
			g2 = g1
		default:
			j := i - half
			g1 = 0.3 + 0.7*(float64((j*7919)%half)+float64(j)/float64(half))/float64(half)
			g2 = 0.3 + 0.7*(float64((j*104729)%half)+float64(j)/float64(half))/float64(half)
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

// TestStealActuallySteals guards against the mechanism rotting into a
// vacuous no-op: on the lopsided workload the early-finishing worker
// must successfully split the busy shard at least once across the
// trials, and the answers must stay exact every time. The sources carry
// a tiny per-access latency so the test holds on a single-core host
// too: an all-CPU evaluation this short can finish before the Go
// scheduler ever runs the second worker, and a thief that never runs
// never steals — the sleep yields the processor at every access,
// making the idle worker's request and the victim's honor actually
// interleave.
func TestStealActuallySteals(t *testing.T) {
	const n, k = 8192, 64
	db := lopsidedDB(t, n, k)
	want, _, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueScorer(db, agg.Min)
	stolen := 0
	for trial := 0; trial < 3; trial++ {
		sr, err := EvaluateSharded(context.Background(), A0{}, slowSourcesOf(db, 20*time.Microsecond), agg.Min, k,
			ShardConfig{Shards: 2, Parallel: 2, Steal: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireShardEquiv(t, fmt.Sprintf("trial=%d", trial), want, sr.Results, truth)
		stolen += sr.Stolen
	}
	if stolen == 0 {
		t.Error("no steal occurred in 3 lopsided trials; the mechanism is inert")
	}
	t.Logf("%d steals over 3 trials", stolen)
}

// TestStealWithWeightedPlan composes the tentpole's two halves: weighted
// boundaries and stealing together must still merge the exact top-k.
func TestStealWithWeightedPlan(t *testing.T) {
	const n, k = 4096, 12
	db := skewedDB(t, n, 512)
	sketches := []*subsys.Sketch{subsys.SketchList(db.List(0)), subsys.SketchList(db.List(1))}
	want, _, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueScorer(db, agg.Min)
	for trial := 0; trial < 8; trial++ {
		sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, k,
			ShardConfig{Shards: 4, Parallel: 4, Steal: true, Plan: ShardPlanWeighted, Sketches: sketches})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		requireShardEquiv(t, fmt.Sprintf("trial=%d", trial), want, sr.Results, truth)
	}
}

// TestStealSingleWorkerIsOff: stealing needs a second worker to give
// work to — with Parallel=1 the flag must be inert, the evaluation byte
// for byte the sequential one, and the steal counters zero.
func TestStealSingleWorkerIsOff(t *testing.T) {
	db := skewedDB(t, 2048, 256)
	plain, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 8,
		ShardConfig{Shards: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	stealing, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 8,
		ShardConfig{Shards: 4, Parallel: 1, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if stealing.Cost != plain.Cost {
		t.Errorf("Parallel=1 steal cost %v, plain %v", stealing.Cost, plain.Cost)
	}
	if stealing.Stolen != 0 {
		t.Errorf("Parallel=1 stole %d times", stealing.Stolen)
	}
	for i := range plain.Results {
		if stealing.Results[i] != plain.Results[i] {
			t.Errorf("result %d = %v, want %v", i, stealing.Results[i], plain.Results[i])
		}
	}
	for s := range plain.PerShard {
		if stealing.PerShard[s] != plain.PerShard[s] {
			t.Errorf("shard %d cost %v, want %v", s, stealing.PerShard[s], plain.PerShard[s])
		}
	}
}

// TestStealNonFenceSafeIsOff: stealing rides the fencing scoreboard
// (a thief's sub-range relies on the same threshold argument), so an
// algorithm outside the fence-safe family must never steal — and must
// still answer correctly.
func TestStealNonFenceSafeIsOff(t *testing.T) {
	db := scoredb.Generator{N: 900, M: 2, Seed: 93}.MustGenerate()
	want, _, err := Evaluate(context.Background(), NaiveSorted{}, sourcesOf(db), agg.Min, 9)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := EvaluateSharded(context.Background(), NaiveSorted{}, sourcesOf(db), agg.Min, 9,
		ShardConfig{Shards: 4, Parallel: 4, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Stolen != 0 {
		t.Errorf("non-fence-safe algorithm stole %d times", sr.Stolen)
	}
	requireShardEquiv(t, "naive-steal", want, sr.Results, trueScorer(db, agg.Min))
}

// TestStealBudgetExhaustion is the three-way race the -race CI job
// pins: thieves requesting splits, victims fencing via the scoreboard,
// and the shared budget pool running dry, all at once. Whatever
// interleaving occurs, the evaluation must terminate (no thief parked
// forever on the controller), report the typed *BudgetError, and never
// overshoot the shared pool; a generous budget must stay equivalent to
// the unsharded answers.
func TestStealBudgetExhaustion(t *testing.T) {
	db := skewedDB(t, 4096, 512)
	free, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 16,
		ShardConfig{Shards: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		budget := float64(free.Cost.Sum()) / 8
		sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 16,
			ShardConfig{Shards: 4, Parallel: 4, Steal: true, Budget: budget})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("trial %d: err = %v, want ErrBudgetExceeded", trial, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("trial %d: err %v does not expose *BudgetError", trial, err)
		}
		if be.Spent > budget {
			t.Errorf("trial %d: spent %v overshoots %v", trial, be.Spent, budget)
		}
		if got := float64(sr.Cost.Sum()); got > budget {
			t.Errorf("trial %d: global spend %v overshoots shared budget %v", trial, got, budget)
		}
	}
	// Generous budget: the shard-equivalence contract holds with the
	// stealing races live.
	want, _, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 16)
	if err != nil {
		t.Fatal(err)
	}
	truth := trueScorer(db, agg.Min)
	for trial := 0; trial < 4; trial++ {
		sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, 16,
			ShardConfig{Shards: 4, Parallel: 4, Steal: true, Budget: float64(free.Cost.Sum()) * 4})
		if err != nil {
			t.Fatalf("generous trial %d: %v", trial, err)
		}
		requireShardEquiv(t, fmt.Sprintf("generous/%d", trial), want, sr.Results, truth)
	}
}
