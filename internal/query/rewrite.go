package query

import "slices"

// Query normalization. Theorem 3.1 is exactly the license an optimizer
// needs: under the standard rules (min, max, 1−x), logically equivalent
// queries built from ∧ and ∨ receive identical grades, so equivalence
// rewrites are safe. Under other semantics only a subset of the rules
// remains sound — the algebraic product, for instance, is associative
// (flattening is fine) but not idempotent (A ∧ A ≠ A) — so each rule is
// gated individually.
//
// Normalization matters to the planner: `NOT NOT (A AND B)` is
// non-monotone as written (forcing naive evaluation) but normalizes to a
// plain conjunction that A₀′ evaluates in O(√(Nk)).

// RewriteRules selects which equivalence rewrites may fire.
type RewriteRules struct {
	// Flatten merges nested conjunctions into one n-ary conjunction (and
	// likewise disjunctions). Sound when the connective is associative:
	// every t-norm/co-norm, but not the means.
	Flatten bool
	// DoubleNegation eliminates ¬¬φ → φ. Sound when negation is an
	// involution, as the standard 1−x is.
	DoubleNegation bool
	// Idempotent deduplicates identical children of a connective
	// (A ∧ A → A). Sound only for min/max (Theorem 3.1).
	Idempotent bool
	// Absorption applies A ∨ (A ∧ B) → A and A ∧ (A ∨ B) → A, and more
	// generally drops a disjunct whose conjuncts include all of a
	// sibling's ((A ∧ B) ∨ (A ∧ B ∧ C) → A ∧ B), and dually. Sound only
	// for min/max.
	Absorption bool
}

// StandardRules returns the full rule set, sound under Standard()
// semantics by Theorem 3.1.
func StandardRules() RewriteRules {
	return RewriteRules{Flatten: true, DoubleNegation: true, Idempotent: true, Absorption: true}
}

// RulesFor derives the sound rule set for a semantics: associativity is
// assumed for t-norm/co-norm connectives (and min/max); idempotency and
// absorption require min and max; double negation requires the standard
// negation. Unknown aggregation functions get no rules, which is always
// safe.
func RulesFor(sem Semantics) RewriteRules {
	var r RewriteRules
	isMin := sem.And != nil && sem.And.Name() == "min"
	isMax := sem.Or != nil && sem.Or.Name() == "max"
	r.Flatten = associative(sem.And) && associative(sem.Or)
	r.DoubleNegation = standardNegation(sem)
	r.Idempotent = isMin && isMax
	r.Absorption = isMin && isMax
	return r
}

// associative recognizes connectives known to be associative: the TNorm
// and CoNorm families (associativity is one of their axioms) and the
// native min/max.
func associative(f interface{ Name() string }) bool {
	switch f.(type) {
	case interface{ Combine(x, y float64) float64 }:
		// TNorm and CoNorm expose their 2-ary core; they are associative
		// by definition.
		return true
	}
	if f == nil {
		return false
	}
	switch f.Name() {
	case "min", "max":
		return true
	}
	return false
}

// standardNegation detects the involutive 1−x rule by evaluation.
func standardNegation(sem Semantics) bool {
	if sem.Not == nil {
		return false
	}
	for _, x := range []float64{0, 0.25, 0.5, 0.8, 1} {
		if sem.Not(x) != 1-x {
			return false
		}
	}
	return true
}

// Rewrite normalizes q under the given rules, applying them bottom-up to
// a fixpoint. The result grades identically to q whenever the rules are
// sound for the semantics in use (see RulesFor).
func Rewrite(q Node, r RewriteRules) Node {
	if q == nil {
		return nil
	}
	for {
		next, changed := rewriteOnce(q, r)
		if !changed {
			return next
		}
		q = next
	}
}

func rewriteOnce(q Node, r RewriteRules) (Node, bool) {
	switch n := q.(type) {
	case Atomic:
		return n, false
	case Weighted:
		child, changed := rewriteOnce(n.Child, r)
		// A weight of exactly 1 on every sibling would be removable, but
		// that is the enclosing connective's call; here only normalize
		// the child.
		return Weighted{Child: child, Weight: n.Weight}, changed
	case Not:
		child, changed := rewriteOnce(n.Child, r)
		if r.DoubleNegation {
			if inner, ok := child.(Not); ok {
				return inner.Child, true
			}
		}
		return Not{Child: child}, changed
	case And:
		kids, changed := rewriteChildren(n.Children, r)
		kids, c2 := normalizeNary(kids, r, true)
		out := collapse(kids, true)
		return out, changed || c2 || !isAnd(out)
	case Or:
		kids, changed := rewriteChildren(n.Children, r)
		kids, c2 := normalizeNary(kids, r, false)
		out := collapse(kids, false)
		return out, changed || c2 || !isOr(out)
	default:
		return q, false
	}
}

func isAnd(n Node) bool { _, ok := n.(And); return ok }
func isOr(n Node) bool  { _, ok := n.(Or); return ok }

func rewriteChildren(children []Node, r RewriteRules) ([]Node, bool) {
	out := make([]Node, len(children))
	changed := false
	for i, c := range children {
		nc, ch := rewriteOnce(c, r)
		out[i] = nc
		changed = changed || ch
	}
	return out, changed
}

// normalizeNary applies flattening, idempotent deduplication, and
// absorption to the children of a conjunction (isAnd) or disjunction.
func normalizeNary(children []Node, r RewriteRules, isAndOp bool) ([]Node, bool) {
	changed := false

	if r.Flatten {
		var flat []Node
		for _, c := range children {
			switch cc := c.(type) {
			case And:
				if isAndOp {
					flat = append(flat, cc.Children...)
					changed = true
					continue
				}
			case Or:
				if !isAndOp {
					flat = append(flat, cc.Children...)
					changed = true
					continue
				}
			}
			flat = append(flat, c)
		}
		children = flat
	}

	if r.Idempotent {
		var dedup []Node
		for _, c := range children {
			dup := false
			for _, d := range dedup {
				if equalNodes(c, d) {
					dup = true
					break
				}
			}
			if dup {
				changed = true
				continue
			}
			dedup = append(dedup, c)
		}
		children = dedup
	}

	if r.Absorption && slices.ContainsFunc(children, func(c Node) bool { return innerChildren(c, isAndOp) != nil }) {
		// Each child stands for the set of its opposite-connective
		// children (a child of any other kind for the set of itself).
		// Inside a disjunction a child whose set holds all of a
		// sibling's is absorbed by it — A ∨ (A ∧ B) → A and
		// (A ∧ B) ∨ (A ∧ B ∧ C) → A ∧ B — and dually inside a
		// conjunction. Of siblings with equal sets the first stays.
		// Without a child of the opposite connective every set is a
		// singleton and only duplicates could go: that is Idempotent's.
		sets := make([][]Node, len(children))
		for i, c := range children {
			if sets[i] = innerChildren(c, isAndOp); sets[i] == nil {
				sets[i] = children[i : i+1]
			}
		}
		var kept []Node
		for i, c := range children {
			absorbed := false
			for k := range children {
				if k != i && subsetOf(sets[k], sets[i]) && (k < i || !subsetOf(sets[i], sets[k])) {
					absorbed = true
					break
				}
			}
			if absorbed {
				changed = true
				continue
			}
			kept = append(kept, c)
		}
		children = kept
	}

	return children, changed
}

// innerChildren returns the children of c if it is the opposite
// connective (Or when wantOr, And otherwise).
func innerChildren(c Node, wantOr bool) []Node {
	if wantOr {
		if o, ok := c.(Or); ok {
			return o.Children
		}
		return nil
	}
	if a, ok := c.(And); ok {
		return a.Children
	}
	return nil
}

// subsetOf reports whether every node of a has an equal in b.
func subsetOf(a, b []Node) bool {
	for _, x := range a {
		if !slices.ContainsFunc(b, func(y Node) bool { return equalNodes(x, y) }) {
			return false
		}
	}
	return true
}

// collapse removes degenerate connectives with a single child.
func collapse(children []Node, isAndOp bool) Node {
	if len(children) == 1 {
		return children[0]
	}
	if isAndOp {
		return And{Children: children}
	}
	return Or{Children: children}
}

// equalNodes reports structural equality.
func equalNodes(a, b Node) bool {
	switch x := a.(type) {
	case Atomic:
		y, ok := b.(Atomic)
		return ok && x == y
	case Weighted:
		y, ok := b.(Weighted)
		return ok && x.Weight == y.Weight && equalNodes(x.Child, y.Child)
	case Not:
		y, ok := b.(Not)
		return ok && equalNodes(x.Child, y.Child)
	case And:
		y, ok := b.(And)
		return ok && equalChildren(x.Children, y.Children)
	case Or:
		y, ok := b.(Or)
		return ok && equalChildren(x.Children, y.Children)
	}
	return false
}

func equalChildren(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalNodes(a[i], b[i]) {
			return false
		}
	}
	return true
}
