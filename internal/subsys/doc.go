// Package subsys models the subsystems a Garlic-style middleware talks
// to, and the only two ways it may talk to them (Section 4):
//
//   - sorted access: the subsystem streams its graded result set in
//     descending grade order, one object at a time (or as a batched
//     span via Entries — semantically the same per-rank accesses,
//     delivered in one call);
//   - random access: the middleware asks for the grade of one given
//     object.
//
// Source is the minimal interface exposing both modes over a materialized
// result. Counted wraps a Source with the bookkeeping the cost model of
// Section 5 needs: it meters every access, memoizes grades the middleware
// has already seen (a repeated request costs nothing, matching the
// paper's "the grade has already been determined, so random access is not
// needed"), and exposes the sequential cursor semantics of sorted access.
//
// # Dense-universe fast path
//
// Every subsystem in this repository grades exactly the objects
// {0,…,N−1}, and a Source over such a universe advertises it through the
// optional UniverseHinter interface. Counted then backs its grade memo
// with a pooled, epoch-stamped flat array instead of a map, so a metered
// access is a pair of array writes; the delivered sorted prefix is kept
// in order so re-reads never touch the source. Sources over sparse or
// undeclared object sets (custom integrations, filtered views) silently
// fall back to the map memo with identical semantics and identical
// Section 5 access counts — the fast path is a mechanical speedup, never
// a behavioral change, and the equivalence tests in core pin exactly
// that. Call Release (or subsys.ReleaseAll) after an evaluation to
// recycle the pooled arrays; long-lived consumers such as paginators may
// simply skip it.
//
// # Readahead vs delivery: the pay-on-delivery invariant
//
// Counted distinguishes buffering from paying: readahead reads sorted
// ranks from the source into the prefix buffer without advancing the
// sorted-access tally or the grade memo, and consumption (EntryAt, the
// cursors) delivers buffered ranks, at which point they are metered and
// memoized. The pipelined executor exploits this to overlap the per-round
// sorted accesses of all m lists — readahead is a latency-hiding detail
// of the transport, while the Section 5 tallies record exactly what the
// algorithm consumed, bit-identical to a serial evaluation.
//
// # Background prefetch pipelines
//
// StartPrefetch extends the readahead buffer into a background per-list
// pipeline: a worker goroutine issues batched sorted accesses
// (src.Entries) ahead of the algorithm's demand, with adaptive depth:
// the window opens at the rank the consumer said it expects to reach
// (Counted.Expect; the A₀ family knows it in closed form) and covers a
// demand stated up front in one call, so a list is usually read in one
// or two calls; a consumer that states nothing starts at 1, and either
// way the depth doubles every time the consumer stalls on the pipeline
// and shrinks when it falls behind, capped at DefaultPrefetchCap — the
// per-call latency of a slow or remote source is amortized over larger
// spans exactly when the source is slow enough to warrant it (the
// pipeline type states the whole policy). The pay-on-delivery invariant is unchanged: the worker fills a
// spool the consumer absorbs into the (still uncounted) prefix buffer,
// and only consumption meters and memoizes, so tallies stay
// bit-identical however deep the pipeline ran. The random-access twins
// TrySourceGrades (raw, unmetered, callable concurrently) and
// DeliverGrade (pays in serial order) let an executor overlap random
// accesses across lists and objects under the same invariant.
//
// # Batched random access
//
// Sorted access is batched in the Source contract itself (Entries);
// random access is batched through an optional capability, BatchGrader:
// TryGrades(objs, out) performs up to MaxGrades random accesses in one
// call. A source where a call is a round trip (wire.RemoteSource)
// implements it; sources where a call is an array read do not. The
// contract is TryEntries' partial prefix: n grades were obtained before
// err, out[:n] is valid, and a non-nil err belongs to objs[n] — so
// however probes were batched, a failure pins to the object a one-by-one
// sweep would have failed at. Counted.TrySourceGrades is the raw face
// (one source call per batch, or one per object without the capability,
// GradeBatch telling the caller how to cut); payment stays per grade at
// DeliverGrade, so a batch of n is n random accesses in every Section 5
// tally.
//
// Counted.Grades is the one routine that fills a list's column of a
// random-access phase, whatever the executor: grades the memo holds are
// resolved inline, the misses are read from the source in one go and
// then paid for in ascending index order, so its outcome — column,
// tallies, memo, sticky first failure — is that of probing the objects
// one by one. "In one go" is GradeBatch-sized TryGrades calls over a
// BatchGrader, and one Grade/TryGrade per miss over any other source,
// with one exception that is not a capability: a Counted wrapping the
// bare in-memory ListSource reads its list's grades directly
// (gradedset.List.Grades, a loop of independent loads, so the cache
// misses of different objects overlap). ListSource does NOT implement
// BatchGrader, on purpose: every wrapper forwards it (see "Writing a
// wrapper"), and a simulated remote would receive a whole list's misses
// as one call. Behind any wrapper — latency, faults, resilience, a shard
// view, a tracer — a probe is no longer two array reads, and the
// wrapper keeps seeing every one.
//
// Lifecycle: Fence drains a list's pipeline (no further accesses once
// the in-flight batch lands), Release stops and joins it, AbortPrefetch
// closes it without waiting (cancellation with a wedged batch in
// flight, budget-reservation failure — an exhausted budget must stop
// even uncounted readahead). A pipelined source must tolerate
// concurrent reads: every built-in source and wrapper does.
//
// # Partitioned universes (sharding)
//
// PlanShards splits the dense universe into P contiguous ranges of
// near-equal size, and ShardView presents the restriction of a parent
// Source to one range as a full-fledged Source of its own: objects
// renumbered to a local dense universe, sorted order re-ranked lazily by
// scanning the parent's canonical order forward — a comparison-only
// scan, never a metered access. A per-shard Counted over the view meters
// exactly the accesses that shard's evaluation consumed, so per-shard
// Section 5 tallies compose by addition. Fence supports the
// threshold-aware merge above the views: a shard driver that can prove a
// shard's remaining objects are out of the global top k closes the
// shard's sorted streams, the algorithm's cursors run dry, and its
// completion phase runs over what was seen; Fence never touches
// delivered prefixes, tallies, memos, or random access. The engine does
// not shard: these are kept for core.EvaluateSharded alone, which only
// the benchmark ladder and E17's tallies call, and ROADMAP 4(a) moves
// them into internal/sim with it.
//
// # Error semantics: fallible sources
//
// A subsystem whose accesses can fail implements FallibleSource — the
// Try* variants of the two access modes — and Counted detects the
// capability at wrap time. Failures then obey three rules.
//
// First, failures are sticky and typed. The first failed access pins a
// *SourceError carrying the list index, the failing rank or object id,
// the access mode, and the attempt count; every later access to the
// list reports the same error, and the executors propagate it unchanged
// to the engine, so callers select on it with errors.As. Partial spans
// are absorbed before the error is pinned: however a caller batched its
// sorted requests, the failure lands on the first undelivered rank. A
// span that comes back short without an error is a failure too, of any
// Source: sorted access delivers the whole graded set (Section 4), so a
// stream that stops early is a broken source, never an early end of
// data, and it pins a *SourceError like any other fault.
//
// Second, failure surfacing is demand-gated, mirroring pay-on-delivery.
// Readahead — the background pipelines, the pipelined executor's
// staging — swallows source failures: the partial span is
// kept, nothing is recorded, and the fault site re-fires if and when
// the algorithm actually demands the missing rank. Only consumption
// records a failure, so which faults surface is a property of what the
// algorithm consumed, invariant across serial, pipelined and sharded
// execution — the executor-equivalence fuzz pins a
// permanent fault to the identical *SourceError under every executor,
// and a fault past the last demanded rank to no error at all.
//
// Third, recovery wraps below, not inside: Resilient adds per-site
// retries with jittered exponential backoff, per-access timeouts
// (abandoning wedged calls), and a circuit breaker (failing fast with
// *BreakerOpenError while open) around any Source, fallible or not.
// However many physical attempts a retried access took, it was ONE
// logical access and meters once — resilience, like readahead, is a
// transport detail invisible to the Section 5 tallies; a transient
// fault plan fully absorbed by retries yields bit-identical results
// and costs to a fault-free run. FaultSource provides the seeded,
// deterministic fault injection (site-keyed, so the faulty ranks are
// identical however accesses are batched or sharded) the tests and the
// fuzz harness drive all of this with.
//
// # Writing a wrapper
//
// Everything stacked on a Source or a Subsystem must be transparent to
// the tallies and to the optional faces the engine probes for; a wrapper
// that drops one silently loses the dense fast path, batched random
// access or cache invalidation. So no wrapper
// forwards capabilities by hand: it embeds a base (wrap.go) and
// overrides what it changes.
//
// A Source wrapper embeds inner, which resolves the wrapped source's
// faces once (FacesOf) and forwards
//
//	Source            Len, Entry, Entries, Grade   the plain face, untouched
//	UniverseHinter    Universe                     the wrapped source's hint
//	ContextSource     BindContext                  bound on the wrapped source
//	BatchGrader       MaxGrades                    0 when in.Batch is nil
//
// and adds TryEntry/TryEntries/TryGrade over in.Try — always: every
// wrapper is a FallibleSource that over a parent that cannot fail never
// fails — and TryGrades over in.Batch. Validated embeds the base too
// and adds neither, which is why the base has no Try* of its own.
//
// A Subsystem wrapper embeds wrapped, whose Query wraps what the inner
// subsystem returns and which forwards Versioned;
// the middleware's SelectivityEstimator and ConjunctionEvaluator are
// the two faces deliberately not forwarded (the reason is on wrapped).
// Counted and the prefetch pipeline are not wrappers in this sense and
// keep their own two-face reads: whether the source can fail at all is
// what Counted.Fallible reports.
//
// The package also provides realistic stand-ins for the subsystems the
// paper names: a relational predicate engine (0/1 grades, the
// Artist="Beatles" conjunct), a color-histogram similarity engine in the
// role of QBIC (AlbumColor="red"), and a token-overlap text scorer. Each
// evaluates an atomic query X = t into a Source.
package subsys
