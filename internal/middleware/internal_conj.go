package middleware

import (
	"context"
	"fmt"

	"fuzzydb/internal/core"
	"fuzzydb/internal/query"
	"fuzzydb/internal/subsys"
)

// ConjunctionEvaluator is the optional subsystem capability behind
// Section 8's internal conjunction: a subsystem that can evaluate a
// multi-target conjunction natively, under its own semantics — which may
// differ from the middleware's (the paper's example: QBIC's conjunction
// is not Garlic's min).
type ConjunctionEvaluator interface {
	subsys.Subsystem
	// QueryConjunction evaluates the conjunction of Attribute = target
	// for every target, under the subsystem's own rules.
	QueryConjunction(targets []string) (subsys.Source, error)
}

// TopKInternal evaluates a conjunction of atoms that all name the same
// attribute by pushing the whole conjunction into the owning subsystem —
// the "internal conjunction" flavor a user may request for efficiency.
// One sorted stream comes back: the middleware's work is a single-list
// top-k, but the grades follow the subsystem's semantics, so the answer
// may legitimately differ from the external conjunction (Query), which
// evaluates the atoms separately and combines them under the middleware's
// rules. That divergence is precisely the Section 8 phenomenon.
func (m *Middleware) TopKInternal(ctx context.Context, atoms []query.Atomic, k int, opts ...QueryOption) (*Report, error) {
	if len(atoms) == 0 {
		return nil, fmt.Errorf("middleware: internal conjunction of nothing")
	}
	attr := atoms[0].Attr
	targets := make([]string, len(atoms))
	for i, a := range atoms {
		if a.Attr != attr {
			return nil, fmt.Errorf("middleware: internal conjunction spans attributes %q and %q; use the external conjunction", attr, a.Attr)
		}
		targets[i] = a.Target
	}
	s, ok := m.subsystems[attr]
	if !ok {
		return nil, &UnknownAttributeError{Attr: attr}
	}
	ce, ok := s.(ConjunctionEvaluator)
	if !ok {
		return nil, fmt.Errorf("middleware: subsystem %q cannot evaluate internal conjunctions", attr)
	}
	src, err := ce.QueryConjunction(targets)
	if err != nil {
		return nil, err
	}
	req := newRequest("", opts)
	plan := &Plan{
		Algorithm: core.B0{}, // single list: the prefix is the answer
		Atoms:     atoms,
		Agg:       m.sem.And,
		Reason:    fmt.Sprintf("internal conjunction pushed down to subsystem %q (Section 8)", attr),
	}
	// k is passed through unclamped: like the other explicit-k entry
	// points, out-of-range values surface core.ErrBadK.
	sr, err := core.Run(ctx, []subsys.Source{src}, req.lower(), topK(plan.Algorithm, plan.Agg, k))
	return newReport(plan, sr, err)
}
