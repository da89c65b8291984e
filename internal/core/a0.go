package core

import (
	"math"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/subsys"
)

// A0 is Fagin's Algorithm (algorithm A₀ of Section 4) for an arbitrary
// monotone query F_t(A₁,…,Aₘ).
//
// Sorted access phase: every list is read in parallel (round-robin, one
// entry per list per round, so all lists reach a common depth T) until at
// least k objects have been seen in every list — the "matches".
//
// Random access phase: for every object seen in any list, the grades in
// the remaining lists are fetched by random access.
//
// Computation phase: the overall grade t(μ₁(x),…,μₘ(x)) is computed for
// every seen object, and the best k are returned.
//
// Correctness for monotone t is Theorem 4.2: the prefixes X^i_T are
// upward closed, so by Proposition 4.1 any object beating a member of the
// match set L must itself have been seen in every list. A₀ does not check
// that t is monotone: the middleware's planner sends a non-monotone law
// to the naive drain instead.
type A0 struct{}

// Name implements Algorithm.
func (A0) Name() string { return "A0" }

// TopK implements Algorithm.
func (a A0) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	if _, err := checkArgs(lists, k); err != nil {
		return nil, err
	}

	sc := acquireScratch(lists)
	defer ec.releaseScratch(sc)
	if err := a.sortedPhase(ec, sc, lists, k); err != nil {
		return nil, err
	}

	// Random access and computation phases: complete every seen object's
	// grade vector (grades already delivered by sorted access are served
	// from the middleware's cache at no cost) and aggregate.
	entries, err := ec.appendScores(sc, lists, sc.objects(), t, sc.entriesBuf())
	sc.keepEntries(entries)
	if err != nil {
		return nil, err
	}
	return topKResults(entries, k), nil
}

// sortedPhase runs round-robin sorted access until the intersection of
// the per-list prefixes holds at least k objects (or the lists are
// exhausted, which by k ≤ N also yields k matches). Afterwards sc's
// touched set holds every object seen under sorted access in any list.
func (A0) sortedPhase(ec *ExecContext, sc *scratch, lists []*subsys.Counted, k int) error {
	m := int32(len(lists))
	cursors := subsys.Cursors(lists)
	ec.expectDepth(lists, k)
	matches := 0
	for matches < k {
		if err := ec.Stage(cursors, 1); err != nil {
			return err
		}
		if err := ec.ReserveRound(cursors); err != nil {
			return err
		}
		exhausted := true
		for _, cu := range cursors {
			e, ok := cu.Next()
			if !ok {
				continue
			}
			exhausted = false
			if sc.visit(e.Object) == m {
				matches++
			}
		}
		if exhausted {
			break
		}
	}
	return nil
}

// expectDepth tells every list how deep the A₀ sorted phase expects to
// read it (subsys.Counted.Expect), so a pipelined executor opens each
// list's readahead window at that depth instead of discovering it one
// doubling — one round trip — at a time, and a serial evaluation reads a
// bare in-memory list to that depth in one span. Over independent lists
// the phase stops at T ≈ N^((m−1)/m)·k^(1/m) in every list (Theorem 5.3:
// the planner's own reason for choosing A₀); the statement is T plus a
// quarter, because the relative spread of the measured stopping depth is
// ≈16 % at m = 2 and ≈10 % at m = 3 (bench/README.md, k = 10), so +25 %
// is ≥ 1.5σ and the opening batch serves all but a few lists in one
// call. Never below k —
// k matches need k ranks of every list, so those are never over-read —
// and, applied last, never past what an access budget could pay for in
// whole rounds. Transport only: correlated or skewed lists that stop
// elsewhere cost over-read or further round trips, never a tallied access.
func (ec *ExecContext) expectDepth(lists []*subsys.Counted, k int) {
	m := float64(len(lists))
	kRoot := math.Pow(float64(k), 1/m)
	for _, l := range lists {
		e := max(int(math.Ceil(1.25*math.Pow(float64(l.Len()), (m-1)/m)*kRoot)), k)
		if ec.pool != nil {
			if rounds := ec.pool.limit / (ec.model.C1 * m); rounds < float64(e) {
				e = int(rounds) + 1
			}
		}
		l.Expect(e)
	}
}

// liveCursors counts the cursors that will deliver on the next round —
// the exact sorted-access price of one round-robin step.
func liveCursors(cursors []*subsys.Cursor) int {
	live := 0
	for _, cu := range cursors {
		if !cu.Exhausted() {
			live++
		}
	}
	return live
}

// A0Prime is algorithm A₀′ of Section 4: the refinement for the standard
// fuzzy conjunction (t = min). The sorted phase is that of A₀. Then,
// instead of probing every seen object, it probes only the candidates:
// with x₀ a match of least overall grade g₀ and i₀ a list where x₀
// attains it, the candidates are the objects of X^{i₀}_T whose grade in
// list i₀ is at least g₀. By Proposition 4.3, any object beating a match
// must lie in X^{i₀}_T, so the candidates suffice (Theorem 4.4). The
// saving over A₀ is a constant factor of random accesses.
type A0Prime struct{}

// Name implements Algorithm.
func (A0Prime) Name() string { return "A0'" }

// TopK implements Algorithm. The aggregation function must behave as min;
// it is applied to compute overall grades, but the candidate pruning is
// justified only for min (the middleware's planner enforces this).
func (a A0Prime) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	if _, err := checkArgs(lists, k); err != nil {
		return nil, err
	}

	// Sorted access phase. Matches are collected in discovery order
	// (which round-robin makes deterministic); the i₀ prefix scanned
	// afterwards is what that list's cursor consumed.
	m := len(lists)
	sc := acquireScratch(lists)
	defer ec.releaseScratch(sc)
	cursors := subsys.Cursors(lists)
	ec.expectDepth(lists, k)
	var matches []int
	for len(matches) < k {
		if err := ec.Stage(cursors, 1); err != nil {
			return nil, err
		}
		if err := ec.ReserveRound(cursors); err != nil {
			return nil, err
		}
		exhausted := true
		for _, cu := range cursors {
			e, ok := cu.Next()
			if !ok {
				continue
			}
			exhausted = false
			if sc.visit(e.Object) == int32(m) {
				matches = append(matches, e.Object)
			}
		}
		if exhausted {
			break
		}
	}

	// Locate x₀ (least overall grade among matches) and i₀ (a list where
	// x₀ attains it). Matches were seen in every list, so their grade
	// vectors are already known and free. Ties on g₀ resolve to the
	// earliest (match, list) pair in discovery order, deterministically.
	g0 := 2.0
	i0 := 0
	for _, obj := range matches {
		for j, l := range lists {
			g, _ := l.Known(obj)
			if g < g0 {
				g0 = g
				i0 = j
			}
		}
	}

	// Candidates: members of the i₀ prefix graded at least g₀ there.
	prefix := cursors[i0].Consumed()
	cand := make([]int, 0, len(prefix))
	for _, e := range prefix {
		if e.Grade >= g0 {
			cand = append(cand, e.Object)
		}
	}
	entries, err := ec.appendScores(sc, lists, cand, t, sc.entriesBuf())
	sc.keepEntries(entries)
	if err != nil {
		return nil, err
	}
	return topKResults(entries, k), nil
}
