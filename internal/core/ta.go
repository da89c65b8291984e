package core

import (
	"container/heap"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// TA is the Threshold Algorithm, the successor of A₀ in the line of work
// this paper initiated (implemented here as a documented extension for
// the ablation experiments). It differs from A₀ in doing random access
// eagerly: each object revealed by sorted access is immediately probed in
// every other list, so its exact overall grade is known at once. After
// each round the threshold τ = t(g̲₁,…,g̲ₘ) — the aggregate of the last
// grades seen under sorted access — bounds the grade of every unseen
// object (for monotone t), so the algorithm stops as soon as the current
// k-th best grade reaches τ.
//
// TA is instance optimal for monotone t, and never scans deeper than A₀:
// its stopping rule fires at the latest when A₀'s does.
type TA struct{}

// Name implements Algorithm.
func (TA) Name() string { return "TA" }

// TopK implements Algorithm.
func (TA) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	if _, err := checkArgs(lists, k); err != nil {
		return nil, err
	}
	cursors := subsys.Cursors(lists)
	sc := acquireScratch(lists)
	defer ec.releaseScratch(sc)
	buf := sc.gradesBuf(len(lists))
	// top maintains the best k exact grades seen so far (a min-heap with
	// the k-th best at the root). Grades are exact on first sight and
	// never change, so incremental maintenance is sound.
	top := &boundedTopK{k: k}
	lasts := make([]float64, len(lists))
	for i := range lasts {
		lasts[i] = 1
	}
	for {
		if err := ec.Stage(cursors, 1); err != nil {
			return nil, err
		}
		exhausted := true
		for i, cu := range cursors {
			if cu.Exhausted() {
				continue
			}
			// Reserve each sorted access immediately before paying it,
			// not round-wide: TA interleaves probe reservations into the
			// round, and a reservation settles the previous grant — a
			// round-wide grant would stop covering the later cursors the
			// moment the first object's probes are reserved, letting the
			// spend overshoot the budget by up to m−1 accesses.
			if err := ec.Reserve(1, 0); err != nil {
				return nil, err
			}
			e, ok := cu.Next()
			if !ok {
				continue
			}
			exhausted = false
			lasts[i] = e.Grade
			if sc.visit(e.Object) == 1 {
				// Eager random access is TA's defining move; each probe is
				// reserved at its exact (uncached) price.
				if err := ec.ReserveProbes(lists, e.Object); err != nil {
					return nil, err
				}
				gradesInto(buf, lists, e.Object)
				top.offer(gradedset.Entry{Object: e.Object, Grade: t.Apply(buf)})
			}
		}
		if exhausted {
			break
		}
		// Threshold: no unseen object can aggregate above t(lasts).
		if top.full() && top.kth().Grade >= t.Apply(lasts) {
			break
		}
	}
	return topKResults(top.entries, k), nil
}

// boundedTopK keeps the k best entries by the package tie-break.
type boundedTopK struct {
	k       int
	entries entryMinHeap
}

func (b *boundedTopK) full() bool { return len(b.entries) >= b.k }

// kth returns the current k-th best entry; call only when full.
func (b *boundedTopK) kth() gradedset.Entry { return b.entries[0] }

func (b *boundedTopK) offer(e gradedset.Entry) {
	if len(b.entries) < b.k {
		heap.Push(&b.entries, e)
		return
	}
	if entryBetter(e, b.entries[0]) {
		b.entries[0] = e
		heap.Fix(&b.entries, 0)
	}
}

// entryBetter mirrors the deterministic ordering of gradedset.TopK.
func entryBetter(a, c gradedset.Entry) bool {
	if a.Grade != c.Grade {
		return a.Grade > c.Grade
	}
	return a.Object < c.Object
}

// entryMinHeap keeps the worst of the kept entries at the root.
type entryMinHeap []gradedset.Entry

func (h entryMinHeap) Len() int            { return len(h) }
func (h entryMinHeap) Less(i, j int) bool  { return entryBetter(h[j], h[i]) }
func (h entryMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryMinHeap) Push(x interface{}) { *h = append(*h, x.(gradedset.Entry)) }
func (h *entryMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
