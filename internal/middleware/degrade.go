package middleware

import (
	"errors"

	"fuzzydb/internal/cost"
	"fuzzydb/internal/query"
	"fuzzydb/internal/subsys"
)

// DegradedList records one subsystem list a degraded evaluation dropped:
// which atom failed, how hard the resilience layer tried before giving
// up, the terminal error, and the access cost sunk into the failed
// attempt (already folded into the report's total Cost).
type DegradedList struct {
	// Attr and Target identify the dropped atom.
	Attr   string
	Target string
	// Attempts is how many times the failing access was tried before the
	// evaluation gave the list up (1 when no resilience wrapper retried).
	Attempts int
	// Err is the terminal typed error (*subsys.SourceError wrapping the
	// underlying cause) that condemned the list.
	Err error
	// Cost is the Section 5 access cost the failed attempt spent before
	// the list died. It is included in the report's total Cost.
	Cost cost.Cost
}

// WithDegradedLists opts the request in to graceful degradation: when a
// subsystem list fails permanently mid-query (the typed
// *subsys.SourceError survives any resilience retries), the middleware
// drops the failed atom and re-evaluates the pruned query over the
// surviving m−1 lists — by construction the answer equals a fresh query
// over the survivors — up to maxDrop times. Each dropped list is
// recorded in Report.Degraded, and the cost sunk into failed attempts is
// folded into the report's total Cost.
//
// A query cannot degrade below one atom, and a single-atom query never
// degrades; in those cases (and always without this option) the
// evaluation fails fast with the typed error and a valid partial-cost
// report. Results, Stream and Filter do not degrade: a pruned query
// would silently change the meaning of an already-streaming answer
// sequence or of a threshold condition, so they fail fast too.
func WithDegradedLists(maxDrop int) QueryOption {
	return func(r *Request) { r.Degrade = maxDrop }
}

// pruneAtom removes every occurrence of the given atom from the query
// tree (query.Compile dedupes atoms, so one failed list may back several
// tree positions), collapsing connectives as children vanish: an And/Or
// left with one child becomes that child, and a node left with none — or
// a Not/Weighted whose child vanished — is removed. It returns nil when
// nothing survives.
func pruneAtom(n query.Node, victim query.Atomic) query.Node {
	switch q := n.(type) {
	case query.Atomic:
		if q == victim {
			return nil
		}
		return q
	case query.And:
		kept := pruneChildren(q.Children, victim)
		switch len(kept) {
		case 0:
			return nil
		case 1:
			return kept[0]
		}
		return query.And{Children: kept}
	case query.Or:
		kept := pruneChildren(q.Children, victim)
		switch len(kept) {
		case 0:
			return nil
		case 1:
			return kept[0]
		}
		return query.Or{Children: kept}
	case query.Not:
		child := pruneAtom(q.Child, victim)
		if child == nil {
			return nil
		}
		return query.Not{Child: child}
	case query.Weighted:
		child := pruneAtom(q.Child, victim)
		if child == nil {
			return nil
		}
		return query.Weighted{Child: child, Weight: q.Weight}
	}
	return n
}

func pruneChildren(children []query.Node, victim query.Atomic) []query.Node {
	var kept []query.Node
	for _, c := range children {
		if p := pruneAtom(c, victim); p != nil {
			kept = append(kept, p)
		}
	}
	return kept
}

// degradeTarget decides whether a failed evaluation may degrade: the
// request must have drop headroom left, the error must be a terminal
// typed source failure identifying a known atom, and at least one atom
// must survive. It returns the condemned list's index in plan.Atoms and
// its record.
func degradeTarget(plan *Plan, rep *Report, err error, headroom int) (int, DegradedList, bool) {
	if headroom <= 0 || len(plan.Atoms) <= 1 {
		return 0, DegradedList{}, false
	}
	var se *subsys.SourceError
	if !errors.As(err, &se) || se.List < 0 || se.List >= len(plan.Atoms) {
		return 0, DegradedList{}, false
	}
	atom := plan.Atoms[se.List]
	dl := DegradedList{Attr: atom.Attr, Target: atom.Target, Attempts: se.Attempts, Err: err}
	if rep != nil {
		dl.Cost = rep.Cost
	}
	return se.List, dl, true
}
