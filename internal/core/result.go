package core

import (
	"context"
	"errors"
	"fmt"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// Result is one answer: an object with its overall grade under the query.
type Result struct {
	Object int
	Grade  float64
}

// String renders "(object, grade)".
func (r Result) String() string { return fmt.Sprintf("(%d, %.4f)", r.Object, r.Grade) }

// Algorithm finds the top k answers of F_t(A₁,…,Aₘ) where list i is the
// graded answer of atomic query Aᵢ. Implementations touch the lists only
// through the Counted access interface, so every grade they learn is
// metered, and they route their access phases through the ExecContext
// (Stage before each sorted round, Gather for bulk random access,
// Reserve before paying), which is how cancellation, access budgets, and
// the pluggable executor reach every member of the family uniformly.
//
// Every returned grade is the object's exact overall grade t(μ₁,…,μₘ),
// not a bound on it. The sharded merge (EvaluateSharded), the paginator
// and the middleware's result cache compare and store grades across
// evaluations, and rely on that.
type Algorithm interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// TopK returns k results in descending grade order. On cancellation
	// or budget exhaustion it returns nil results and an error that
	// wraps the context error or ErrBudgetExceeded respectively; the
	// cost spent so far remains readable from the lists (or from the
	// ExecContext's SafeCost if the evaluation was abandoned).
	TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error)
}

// Errors shared by the algorithms.
var (
	// ErrBadK reports k outside [1, N].
	ErrBadK = errors.New("core: k must satisfy 1 <= k <= N")
	// ErrNoLists reports an empty list set.
	ErrNoLists = errors.New("core: no lists")
	// ErrArity reports an algorithm applied at an unsupported arity.
	ErrArity = errors.New("core: unsupported number of lists")
)

// checkArgs validates the common preconditions and returns N.
func checkArgs(lists []*subsys.Counted, k int) (int, error) {
	if len(lists) == 0 {
		return 0, ErrNoLists
	}
	n := lists[0].Len()
	for i, l := range lists {
		if l.Len() != n {
			return 0, fmt.Errorf("%w: list %d has %d objects, want %d", ErrArity, i, l.Len(), n)
		}
	}
	if k < 1 || k > n {
		return 0, fmt.Errorf("%w: k=%d, N=%d", ErrBadK, k, n)
	}
	return n, nil
}

// topKResults selects the k best (object, grade) pairs in descending
// grade order with the package-wide deterministic tie-break.
func topKResults(entries []gradedset.Entry, k int) []Result {
	top := gradedset.TopK(entries, k)
	out := make([]Result, len(top))
	for i, e := range top {
		out[i] = Result{Object: e.Object, Grade: e.Grade}
	}
	return out
}

// Evaluate wraps sources in counters, runs the algorithm under the given
// context and options, and returns the results together with the exact
// middleware access cost incurred — on success the full Section 5
// tallies, on cancellation or budget exhaustion the partial cost spent
// before the stop. The counters' pooled caches are recycled before
// returning, so callers that need the lists to outlive the evaluation
// should use NewPaginator, or wrap sources with subsys.CountAll and
// drive the algorithm themselves.
func Evaluate(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, k int, opts ...EvalOption) ([]Result, cost.Cost, error) {
	d := partition{ctx: ctx, alg: alg, t: t, srcs: srcs, opts: opts}
	s := d.whole(k)
	return s.res, s.total, s.err
}
