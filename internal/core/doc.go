// Package core implements the paper's primary contribution: algorithms
// for finding the top k answers to a query F_t(A₁,…,Aₘ) over m graded
// lists, touching the lists only through sorted and random access.
//
// The algorithms:
//
//   - A0 (Fagin's Algorithm): three phases — sorted access round-robin
//     until at least k objects have been seen in every list, random access
//     to complete the grades of every seen object, then computation.
//     Correct for every monotone aggregation function (Theorem 4.2), with
//     middleware cost O(N^((m−1)/m)·k^(1/m)) with arbitrarily high
//     probability when the lists are independent (Theorem 5.3), which is
//     optimal for monotone strict functions (Theorem 6.5).
//   - A0Prime: the min-specific refinement of Section 4 — after the
//     sorted phase, random accesses are restricted to the "candidates",
//     the members of one list's prefix (Theorem 4.4), saving a constant
//     factor of random accesses.
//   - B0: the disjunction algorithm for max — k sorted accesses per list,
//     no random accesses, cost mk independent of the database size
//     (Theorem 4.5, Remark 6.1).
//   - OrderStat: the Remark 6.1 construction generalized — the j-th
//     largest of m grades is the max over j-subsets of the min over the
//     subset, so a median query runs one A0Prime per subset and merges
//     B0-style. For m = 3 this is exactly the paper's median algorithm
//     with cost O(√(Nk)). The middleware plans it for the identity
//     spelled as a query: the OR of the ANDs of every j-subset.
//   - Ullman: the Section 9 sequential probe algorithm for binary min
//     conjunctions — sorted access on one list, an immediate random probe
//     on the other, stopping when the k-th best candidate is at least the
//     last sorted grade. Expected constant cost when one list's grades
//     are bounded away from 1; Θ(√N) when both are uniform (Landau).
//   - NaiveSorted: the linear baseline of Section 4, and the reference
//     answer of the equivalence tests.
//   - TA: the threshold algorithm, A₀'s successor in the FA lineage —
//     immediate random access on first sight, stopping once the k-th best
//     grade reaches t of the last sorted grades. A documented extension;
//     off min it costs less than A₀ (experiment E18).
//
// Every algorithm returns exact overall grades (see Algorithm).
//
// Package core also provides threshold (filter-condition) evaluation in
// the style of Chaudhuri–Gravano, and a Paginator implementing the "find
// the next k best answers by continuing where we left off" feature noted
// after Theorem 4.2. Partitioned evaluation has one driver: a one-shot
// top k (EvaluateSharded) is the paginator's first page plus fencing,
// over the same planned slices, and Run is its one whole-universe slice.
//
// # Requests and executors
//
// Evaluation is request-scoped: Evaluate takes a context.Context and
// per-request options, and every algorithm takes an *ExecContext
// carrying that context, the cost model, an optional access budget, and
// optionally a Pipelined configuration (WithExecutor). The executor is
// the transport between algorithms and subsystems, and a configuration,
// not a type to implement: without one every access is issued inline;
// with one they overlap, a background prefetcher per list staging sorted
// ranks into uncounted readahead buffers at an adaptive depth (up to the
// configuration's cap) and the random-access phase fanned out up to its
// width. The executor never changes semantics — the Section 5 tallies
// meter what the algorithm consumes, which is identical either way, and
// the equivalence tests pin that bit for bit. Cancellation is honored
// between accesses (serial) or by abandoning in-flight workers
// (pipelined). Budgets are enforced by reservation from one ledger, a
// pool shared by an evaluation's slices (a pool of one unsharded),
// before each step, so a budgeted evaluation stops with
// ErrBudgetExceeded and a partial cost that never overshoots the limit.
//
// All algorithms interact with data exclusively through subsys.Counted,
// so reported costs are exactly the S and R of the Section 5 cost model.
package core
