package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// spanLog records the [lo, hi) of every batched sorted access a Counted
// list or its pipeline issues (both read a fallible source through
// TryEntries) on its way to the permFail it wraps.
type spanLog struct {
	*permFail
	mu    sync.Mutex
	spans [][2]int
}

func (s *spanLog) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	s.mu.Lock()
	s.spans = append(s.spans, [2]int{lo, hi})
	s.mu.Unlock()
	return s.permFail.TryEntries(lo, hi)
}

func (s *spanLog) calls() [][2]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][2]int(nil), s.spans...)
}

// loggedSourcesOf wraps every list of the database in a spanLog; list
// `victim` fails sorted access at failRank (−1: nothing fails).
func loggedSourcesOf(db *scoredb.Database, victim, failRank int) ([]subsys.Source, []*spanLog) {
	srcs := sourcesOf(db)
	logs := make([]*spanLog, len(srcs))
	for i := range srcs {
		rank := -1
		if i == victim {
			rank = failRank
		}
		logs[i] = &spanLog{permFail: &permFail{Source: srcs[i], failRank: rank, failObj: -1}}
		srcs[i] = logs[i]
	}
	return srcs, logs
}

// TestExpectedDepthYieldsToBudget: the depth A₀ states is never past what
// the access budget could pay for in whole rounds, ⌊budget/(C1·m)⌋ + 1
// ranks per list, and that clamp applies last — below the 512-rank cap
// the unbudgeted expectation (≈870 here) would open at, and below the
// floor of k when the budget is smaller still.
func TestExpectedDepthYieldsToBudget(t *testing.T) {
	const m, k = 3, 20
	db := scoredb.Generator{N: 4096, M: m, Seed: 61}.MustGenerate()
	_, full, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		budget float64
		under  int // what the opening depth would be without the budget clamp
	}{
		{float64(full.Sum()) / 10, subsys.DefaultPrefetchCap},
		{30, k},
	} {
		open := int(tc.budget/m) + 1
		if open >= tc.under {
			t.Fatalf("budget %v opens at %d, not under %d: the case does not isolate the clamp", tc.budget, open, tc.under)
		}
		srcs, logs := loggedSourcesOf(db, -1, -1)
		_, _, err := Evaluate(context.Background(), A0{}, srcs, agg.Min, k,
			WithAccessBudget(tc.budget), WithExecutor(Pipelined{}))
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %v: err = %v, want ErrBudgetExceeded", tc.budget, err)
		}
		for i, l := range logs {
			if calls := l.calls(); len(calls) == 0 || calls[0] != [2]int{0, open} {
				t.Errorf("budget %v, list %d: calls %v, want the first to be [0 %d]", tc.budget, i, calls, open)
			}
		}
	}
}

// TestFaultInsideOpeningBatchStaysInvisible is the swallow-on-readahead
// rule under a 250-rank readahead: a permanent sorted fault that sits
// inside the window the expectation opens, but past the depth the
// algorithm consumes, is read by the pipeline and must change nothing —
// Serial and Pipelined{} return the same answers and the same tally as
// the fault-free run, with no error.
func TestFaultInsideOpeningBatchStaysInvisible(t *testing.T) {
	const m, k, victim = 2, 10, 1
	db := scoredb.Generator{N: 4096, M: m, Seed: 66}.MustGenerate()
	for _, tc := range []struct {
		alg Algorithm
		f   agg.Func
		// ahead is how far past the consumed depth the fault sits; read,
		// whether the pipeline is certain to have asked for that rank (B₀'s
		// one-rank readahead past k may not have started when the
		// evaluation returns).
		ahead int
		read  bool
	}{
		{A0{}, agg.Min, 3, true},
		{A0Prime{}, agg.Min, 3, true},
		{B0{}, agg.Max, 0, false},
	} {
		want, wantCost, err := Evaluate(context.Background(), tc.alg, sourcesOf(db), tc.f, k)
		if err != nil {
			t.Fatal(err)
		}
		// All three read every list to one common depth.
		failRank := wantCost.Sorted/m + tc.ahead
		for _, x := range []*Pipelined{nil, {}} {
			label := tc.alg.Name() + "/" + execName(x)
			srcs, logs := loggedSourcesOf(db, victim, failRank)
			got, gotCost, err := Evaluate(context.Background(), tc.alg, srcs, tc.f, k, withExec(x)...)
			if err != nil {
				t.Fatalf("%s: a fault at rank %d, past the consumed depth, surfaced: %v", label, failRank, err)
			}
			requireIdentical(t, label, got, want, gotCost, wantCost)
			if x == nil || !tc.read {
				continue
			}
			hit := false
			for _, s := range logs[victim].calls() {
				hit = hit || (s[0] <= failRank && failRank < s[1])
			}
			if !hit {
				t.Errorf("%s: no call of %v covers rank %d: the fault was never read, the case is vacuous",
					label, logs[victim].calls(), failRank)
			}
		}
	}
}

// TestSerialWrappedSourceReadsPerRank: A₀ states its depth in a serial
// evaluation too, but only a bare in-memory list reads ahead on it. A
// wrapped source is still asked for exactly the ranks the algorithm
// consumes, one [r, r+1) call per rank in order, and the tally is that
// of the bare lists.
func TestSerialWrappedSourceReadsPerRank(t *testing.T) {
	const m, k = 3, 10
	db := scoredb.Generator{N: 4096, M: m, Seed: 67}.MustGenerate()
	want, wantCost, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	srcs, logs := loggedSourcesOf(db, -1, -1)
	got, gotCost, err := Evaluate(context.Background(), A0{}, srcs, agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "serial A0, wrapped", want, got, wantCost, gotCost)
	depth := wantCost.Sorted / m // round-robin: every list read to the same rank
	for i, l := range logs {
		calls := l.calls()
		if len(calls) != depth {
			t.Fatalf("list %d: %d sorted calls, want one per rank consumed (%d)", i, len(calls), depth)
		}
		for r, c := range calls {
			if c != [2]int{r, r + 1} {
				t.Fatalf("list %d: call %d is %v, want [%d %d]", i, r, c, r, r+1)
			}
		}
	}
}
