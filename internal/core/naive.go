package core

import (
	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// NaiveSorted is the baseline of Section 4: each subsystem outputs its
// entire graded set under sorted access, the middleware computes every
// object's overall grade, and keeps the best k. Sorted cost mN, random
// cost 0: linear in the database size regardless of k.
type NaiveSorted struct{}

// Name implements Algorithm.
func (NaiveSorted) Name() string { return "naive-sorted" }

// TopK implements Algorithm. It is correct for every aggregation
// function, monotone or not, since it sees every grade.
func (NaiveSorted) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	n, err := checkArgs(lists, k)
	if err != nil {
		return nil, err
	}
	cursors := subsys.Cursors(lists)
	// Every list is drained in full by definition: stage the complete
	// prefixes (in parallel under the pipelined executor) up front.
	if err := ec.Stage(cursors, n); err != nil {
		return nil, err
	}
	grades := make([][]float64, len(lists))
	for i, cu := range cursors {
		if err := ec.Reserve(n, 0); err != nil {
			return nil, err
		}
		grades[i] = make([]float64, n)
		// Drain in one batched sorted access (cost is still one unit per
		// rank).
		for _, e := range cu.NextBatch(n) {
			grades[i][e.Object] = e.Grade
		}
	}
	entries := make([]gradedset.Entry, n)
	buf := make([]float64, len(lists))
	for obj := 0; obj < n; obj++ {
		for i := range lists {
			buf[i] = grades[i][obj]
		}
		entries[obj] = gradedset.Entry{Object: obj, Grade: t.Apply(buf)}
	}
	return topKResults(entries, k), nil
}
