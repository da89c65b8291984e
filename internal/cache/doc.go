// Package cache is the epoch-versioned top-k result cache: a bounded,
// concurrency-safe map from normalized request keys to previously
// computed reports, with threshold-based revalidation that lets most
// grade updates leave most cached answers standing, and mends the rest
// that a raise disturbed for a few random accesses.
//
// # Why a correct top-k survives most writes
//
// A correct top-k answer R with k-th (smallest) grade g_k certifies,
// for a monotone aggregation function t, that every object outside R
// aggregates to at most g_k — that is the definition of a correct
// answer, and it is exactly the certificate the stop threshold
// τ = t(g̲₁,…,g̲ₘ) of algorithm A₀ establishes (g_k ≥ τ at the stop, so
// g_k is the sharper of the two sound tests). Replaying one grade
// update (list l, object o, old → new) against the entry ends in one
// of three verdicts — fresh, repair or dead:
//
//   - o ∈ R and new < old: the member's aggregate may have dropped below
//     some outsider's, and nothing the entry knows names that outsider.
//     Dead: evict and recompute. (The journal never reports no-op
//     updates, so every member update is a real move.)
//   - o ∈ R and new > old: by monotonicity the member only moved up,
//     and no other aggregate changed, so the new top k is R re-graded.
//     Repair: read o's other grades.
//   - o ∉ R and new < old: by monotonicity o's aggregate did not
//     increase, so it stays at or below g_k; no member grade moved; the
//     cached results are bit-identical to a fresh recompute. Fresh.
//   - o ∉ R and new > old: o's new aggregate is at most
//     t(b₁,…,b_{l-1}, new, b_{l+1},…,b_m), where b_j is an upper bound
//     on o's grade in list j — 1 when unknown, or the exact grade a
//     replayed update revealed (the entry tracks those per object). If
//     that bound is strictly below g_k, o still cannot displace any
//     member: fresh. Otherwise repair: o may belong in the answer.
//
// A replay that reaches no dead verdict and raised some object that the
// bound could not clear is a repair. Raises only lift aggregates, so
// every object outside R that was not raised past the bound still ranks
// below all k members, and the new top k is the top k of R and the
// raised objects. Finding it takes each raised object's grades by random
// access — except the grades the replayed journal already states, so a
// single raise on an m-atom query costs m−1 random accesses, the
// Section 5 price of learning one aggregate. The caller reads them (the
// middleware in one core.Run body, batched per list) through the Probe
// the verdict returns, and the Probe merges. A probed grade at or above
// the new k-th grade that ties another grade of the merged answer ends
// the repair as dead: a recompute might break that tie another way, and
// ties evict conservatively, keeping served answers bit-identical to
// recompute whenever the k-th grade is untied.
//
// The fresh and dead checks touch no sources: an update only costs the
// entries it could actually disturb, and only the random accesses the
// disturbance needs, instead of the evict-all a version-tag cache would
// do.
//
// # Epochs and replay
//
// Entries are stamped with the epoch of each source subsystem at the
// time the sources were materialized (read before materialization, so
// an update racing the computation causes at worst a spurious
// re-check, never a stale hit). A lookup whose stamped epochs lag the
// subsystems' current ones replays the missed updates from the
// subsystems' bounded journals (subsys.Versioned) through the rules
// above; a journal that cannot reach back far enough — overflow, or a
// wholesale list replacement — fails the replay and the entry is
// dropped, conservatively. A fresh replay advances the entry's stamps.
// A repair replaces the entry with the repaired one, stamped at the
// epochs the replay reached, which are read before the probe's sources
// are materialized: an update that lands in between is replayed by the
// next lookup.
//
// # Staleness contract
//
// A hit serves the cached results and the original computation's
// Section 5 tallies (plus the cost it saved). Results are exactly what a
// fresh evaluation over the current data would return — that is what
// the revalidation rules prove, and what the equivalence tests and the
// middleware fuzz harness pin against an always-recompute oracle. The
// tallies describe the original computation: after surviving updates a
// fresh recompute might pay a different access pattern for the same
// answer, and the cache deliberately reports what was actually paid
// when the answer was computed (SavedCost is exactly that spend). After
// a repair, hits serve the repaired results with the original
// computation's Cost and SavedCost; the repair itself is a miss whose
// report carries the repaired results and the random accesses it read.
// Budgeted and degraded evaluations are never cached: their reports
// depend on how the computation went, not only on what the data was.
package cache
