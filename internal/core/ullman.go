package core

import (
	"fmt"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// Ullman is the Section 9 algorithm (due to Jeff Ullman) for the standard
// fuzzy conjunction A₁ ∧ A₂ (t = min) over exactly two lists: read list
// Probe under sorted access, and for each object so revealed immediately
// fetch its grade in the other list by random access. Stop as soon as the
// k-th best candidate's overall grade is at least the grade of the last
// sorted access — no unseen object can beat it, because its list-Probe
// grade (hence its min) is bounded by that last grade. For k = 1 this is
// exactly the paper's stopping rule "stop when μ₂(x) ≥ μ₁(x)".
//
// Under independence with the probed list's grades bounded above by b < 1
// and the other list uniform, the expected number of iterations is at
// most 1/(1−b) — constant in N (Section 9 uses b = 0.9, expected ≤ 10).
// With both lists uniform the expected cost is Θ(√N) (Landau), matching
// A₀ up to constants.
type Ullman struct {
	// Probe selects which list (0 or 1) is read by sorted access; the
	// other is probed by random access.
	Probe int
}

// Name implements Algorithm.
func (u Ullman) Name() string { return "ullman" }

// TopK implements Algorithm. It requires exactly two lists and min
// semantics for t.
func (u Ullman) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	if len(lists) != 2 {
		return nil, fmt.Errorf("%w: ullman needs exactly 2 lists, got %d", ErrArity, len(lists))
	}
	if _, err := checkArgs(lists, k); err != nil {
		return nil, err
	}
	if u.Probe != 0 && u.Probe != 1 {
		return nil, fmt.Errorf("%w: probe list %d", ErrArity, u.Probe)
	}
	primary := subsys.NewCursor(lists[u.Probe])
	primaryOnly := []*subsys.Cursor{primary}
	other := lists[1-u.Probe]

	// top incrementally maintains the best k candidates (the same
	// deterministic order KthGrade used), so each iteration's stop test
	// is O(log k) instead of re-selecting over all candidates.
	top := &boundedTopK{k: k}
	var pair [2]float64
	for !primary.Exhausted() {
		if err := ec.Stage(primaryOnly, 1); err != nil {
			return nil, err
		}
		if err := ec.Reserve(1, 0); err != nil {
			return nil, err
		}
		e, ok := primary.Next()
		if !ok {
			break // all objects seen; candidates are complete
		}
		if err := ec.ReserveProbes(lists, e.Object); err != nil {
			return nil, err
		}
		pair[0], pair[1] = e.Grade, other.Grade(e.Object)
		top.offer(gradedset.Entry{Object: e.Object, Grade: t.Apply(pair[:])})
		// Unseen objects have primary grade ≤ e.Grade, hence overall
		// ≤ e.Grade under min. If k candidates already reach that bar,
		// nothing unseen can displace them.
		if top.full() && top.kth().Grade >= e.Grade {
			break
		}
	}
	return topKResults(top.entries, k), nil
}
