// Package cache is the epoch-versioned top-k result cache: a bounded,
// concurrency-safe map from normalized request keys to previously
// computed reports, with threshold-based invalidation that lets most
// grade updates leave most cached answers standing.
//
// # Why a correct top-k survives most writes
//
// A correct top-k answer R with k-th (smallest) grade g_k certifies,
// for a monotone aggregation function t, that every object outside R
// aggregates to at most g_k — that is the definition of a correct
// answer, and it is exactly the certificate the stop threshold
// τ = t(g̲₁,…,g̲ₘ) of algorithm A₀ establishes (g_k ≥ τ at the stop, so
// g_k is the sharper of the two sound tests). After a single grade
// update (list l, object o, old → new), the cached answer remains a
// correct answer to a fresh evaluation unless the update could move
// some object across that certificate line:
//
//   - o ∈ R: the member's aggregate may have changed, so its cached
//     grade — and possibly the ordering — is stale. Evict. (The
//     journal never reports no-op updates, so every member update is a
//     real move.)
//   - o ∉ R and new ≤ old: by monotonicity o's aggregate did not
//     increase, so it stays at or below g_k; no member grade moved; the
//     cached results are bit-identical to a fresh recompute. Survive.
//   - o ∉ R and new > old: o's new aggregate is at most
//     t(b₁,…,b_{l-1}, new, b_{l+1},…,b_m), where b_j is an upper bound
//     on o's grade in list j — 1 when unknown, or the exact grade a
//     previously replayed update revealed (the entry tracks those per
//     object). If that bound is strictly below g_k, o still cannot
//     displace any member: survive. Ties evict conservatively, keeping
//     served answers bit-identical to recompute whenever the k-th
//     grade is untied.
//
// The check is per cached entry and touches no sources: an update only
// evicts the entries it could actually disturb, instead of the
// evict-all a version-tag cache would do.
//
// # Epochs and replay
//
// Entries are stamped with the epoch of each source subsystem at the
// time the sources were materialized (read before materialization, so
// an update racing the computation causes at worst a spurious
// re-check, never a stale hit). A lookup whose stamped epochs lag the
// subsystems' current ones replays the missed updates from the
// subsystems' bounded journals (subsys.Versioned) through the survival
// test above; a journal that cannot reach back far enough — overflow,
// or a wholesale list replacement — fails the replay and the entry is
// dropped, conservatively.
//
// # Staleness contract
//
// A hit serves the original computation's results and Section 5
// tallies (plus the cost it saved). Results are exactly what a fresh
// evaluation over the current data would return — that is what the
// survival test proves, and what the equivalence tests and the
// middleware fuzz harness pin against an always-recompute oracle. The
// tallies describe the original computation: after surviving updates a
// fresh recompute might pay a different access pattern for the same
// answer, and the cache deliberately reports what was actually paid
// when the answer was computed (SavedCost is exactly that spend).
// Budgeted and degraded evaluations are never cached: their reports
// depend on how the computation went, not only on what the data was.
package cache
