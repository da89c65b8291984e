package core

import (
	"fmt"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/subsys"
)

// OrderStat evaluates top-k for the j-th-largest aggregation function
// (hence the median, Remark 6.1) by the subset decomposition
//
//	j-th largest(a₁,…,aₘ) = max over all j-subsets S of min over S.
//
// For each j-subset of the lists it finds the top k answers of the
// min-conjunction with A₀′, then — B₀-style, since the outer combination
// is a max — unions the per-subset winners, completes their grade vectors
// by random access, and returns the k best by the true order statistic.
//
// For m = 3, j = 2 this is exactly the paper's median algorithm, with
// middleware cost O(√(Nk)) against the Θ(N^(2/3)k^(1/3)) strict-query
// bound: the demonstration that non-strict monotone functions can beat
// the lower bound.
//
// The per-subset runs share one set of counted lists, so a grade paid for
// by one subset's run is free to the others — exactly how a middleware
// with a cache would execute the plan.
type OrderStat struct {
	// J is the order statistic (1 = max, m = min). Zero means median:
	// ⌈(m+1)/2⌉ at runtime.
	J int
}

// Name implements Algorithm.
func (o OrderStat) Name() string {
	if o.J == 0 {
		return "median-via-subsets"
	}
	return fmt.Sprintf("orderstat-%d-via-subsets", o.J)
}

// TopK implements Algorithm. The aggregation function t must be the
// matching order statistic (or median); it is used to compute the final
// grades.
func (o OrderStat) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	if _, err := checkArgs(lists, k); err != nil {
		return nil, err
	}
	m := len(lists)
	j := o.J
	if j == 0 {
		j = (m + 2) / 2 // ⌈(m+1)/2⌉
	}
	if j < 1 || j > m {
		return nil, fmt.Errorf("%w: order statistic %d of %d lists", ErrArity, j, m)
	}

	inner := A0Prime{}
	sc := acquireScratch(lists)
	defer ec.releaseScratch(sc)
	for _, subset := range agg.Subsets(m, j) {
		sub := make([]*subsys.Counted, len(subset))
		for i, idx := range subset {
			sub[i] = lists[idx]
		}
		// The inner runs share this evaluation's ExecContext, so budget
		// accounting spans all subsets and the shared-cache discount
		// (a grade paid by one subset is free to the rest) is preserved.
		res, err := inner.TopK(ec, sub, agg.Min, k)
		if err != nil {
			return nil, fmt.Errorf("subset %v: %w", subset, err)
		}
		for _, r := range res {
			sc.visit(r.Object)
		}
	}

	entries, err := ec.appendScores(sc, lists, sc.objects(), t, sc.entriesBuf())
	sc.keepEntries(entries)
	if err != nil {
		return nil, err
	}
	return topKResults(entries, k), nil
}
