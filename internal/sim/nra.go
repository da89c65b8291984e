package sim

import (
	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// nra is NRA ("no random access"), the other successor of A₀ in the FA
// lineage, kept for E14's ablation only. It reads by sorted access alone
// and keeps, for every seen object, a worst-case grade W(x) (unseen
// grades taken as 0) and a best-case grade B(x) (unseen grades taken as
// the last grade that list has shown). It stops when the k-th best W is
// at least both the B of every other seen object and t(g̲₁,…,g̲ₘ), which
// bounds every unseen object.
//
// The returned objects are a correct top k for any monotone t, but the
// grades are the lower bounds W(x). That breaks core.Algorithm's
// exact-grade contract, which the sharded merge, the paginator and the
// result cache rely on, so NRA stays out of core and only measure runs it.
type nra struct{}

// Name implements core.Algorithm.
func (nra) Name() string { return "NRA" }

// TopK implements core.Algorithm.
func (nra) TopK(ec *core.ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]core.Result, error) {
	m := len(lists)
	cursors := subsys.Cursors(lists)
	slot := map[int]int{} // object → its index in seen and partial
	var seen []int        // objects in first-sight order
	var partial [][]float64
	lasts := make([]float64, m)
	for j := range lasts {
		lasts[j] = 1
	}
	buf := make([]float64, m)
	// bound aggregates a partial grade vector (−1 marks a grade not seen
	// yet) with each unseen grade replaced by 0, giving W(x), or by the
	// list's last grade, giving B(x). Both substitutions are monotone, so
	// W(x) ≤ grade(x) ≤ B(x) for monotone t.
	bound := func(x []float64, best bool) float64 {
		for j, g := range x {
			switch {
			case g >= 0:
				buf[j] = g
			case best:
				buf[j] = lasts[j]
			default:
				buf[j] = 0
			}
		}
		return t.Apply(buf)
	}
	worst := func() []gradedset.Entry {
		es := make([]gradedset.Entry, len(seen))
		for i, obj := range seen {
			es[i] = gradedset.Entry{Object: obj, Grade: bound(partial[i], false)}
		}
		return es
	}
	// stops is the stopping rule, the cheap gate first: unseen objects are
	// bounded by t(lasts), and only once that falls to the k-th W is every
	// seen object's B worth computing.
	stops := func() bool {
		top := gradedset.TopK(worst(), k)
		if len(top) < k {
			return false
		}
		kth := top[len(top)-1].Grade
		if t.Apply(lasts) > kth {
			return false
		}
		inTop := make(map[int]bool, k)
		for _, e := range top {
			inTop[e.Object] = true
		}
		for i, obj := range seen {
			if !inTop[obj] && bound(partial[i], true) > kth {
				return false
			}
		}
		return true
	}

	for {
		if err := ec.Stage(cursors, 1); err != nil {
			return nil, err
		}
		if err := ec.ReserveRound(cursors); err != nil {
			return nil, err
		}
		exhausted := true
		for j, cu := range cursors {
			e, ok := cu.Next()
			if !ok {
				continue
			}
			exhausted = false
			lasts[j] = e.Grade
			i, ok := slot[e.Object]
			if !ok {
				i = len(seen)
				slot[e.Object] = i
				seen = append(seen, e.Object)
				x := make([]float64, m)
				for jj := range x {
					x[jj] = -1
				}
				partial = append(partial, x)
			}
			if partial[i][j] < 0 {
				partial[i][j] = e.Grade
			}
		}
		if exhausted || stops() {
			break
		}
	}

	top := gradedset.TopK(worst(), k)
	out := make([]core.Result, len(top))
	for i, e := range top {
		out[i] = core.Result{Object: e.Object, Grade: e.Grade}
	}
	return out, nil
}
