package core

import (
	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// B0 is algorithm B₀ of Section 4: the evaluator for the standard fuzzy
// disjunction A₁ ∨ … ∨ Aₘ (t = max). It performs exactly k sorted
// accesses per list and no random accesses, then returns the k seen
// objects with the highest single-list grade h(x) = max over the lists
// where x was seen (Theorem 4.5).
//
// Its middleware cost is mk, independent of N — the demonstration that
// the Θ(N^((m−1)/m)k^(1/m)) lower bound genuinely needs strictness, which
// max lacks (Remark 6.1).
//
// The grades it returns are exact: for every object B₀ outputs, h(x)
// equals the true max grade. Had the list attaining x's max ranked x
// below its top k, the k objects above x there would all beat x's
// h-value, and x would not have been output.
type B0 struct{}

// Name implements Algorithm.
func (B0) Name() string { return "B0" }

// TopK implements Algorithm. The aggregation function must behave as max;
// the middleware's planner selects B0 only in that case.
func (B0) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	if _, err := checkArgs(lists, k); err != nil {
		return nil, err
	}
	sc := acquireScratch(lists)
	defer ec.releaseScratch(sc)
	cursors := subsys.Cursors(lists)
	// Every list's top-k prefix is wanted unconditionally: stage them all
	// (in parallel under the pipelined executor) before consuming.
	if err := ec.Stage(cursors, k); err != nil {
		return nil, err
	}
	for _, cu := range cursors {
		// k ≤ N, so each list delivers exactly k entries.
		if err := ec.Reserve(k, 0); err != nil {
			return nil, err
		}
		// One batched sorted access per list (still exactly k units of
		// cost).
		for _, e := range cu.NextBatch(k) {
			sc.offerMax(e.Object, e.Grade)
		}
	}
	entries := sc.entriesBuf()
	for _, obj := range sc.objects() {
		entries = append(entries, gradedset.Entry{Object: obj, Grade: sc.valOf(obj)})
	}
	sc.keepEntries(entries)
	return topKResults(entries, k), nil
}
