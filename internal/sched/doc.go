// Package sched is the admission-control layer between the engine and
// its callers: per-tenant token buckets denominated in Section 5
// access-cost units, weighted-fair admission across tenants, a global
// concurrency and prefetch-width governor, and deadline-aware load
// shedding with a typed overload error.
//
// # The currency: access-cost units
//
// The paper's Section 5 cost model — sorted accesses priced c₁, random
// accesses c₂, a query's middleware cost their weighted sum — is the
// resource the engine actually spends, so it is the currency the
// scheduler meters. A tenant's token bucket refills at Config.Rate
// cost units per second up to a Burst capacity; admission is
// reserve-then-settle: a query reserves its tenant's recent-cost
// estimate up front (so a tenant cannot launch an unbounded flight of
// queries against tokens it is about to lose), and when the evaluation
// finishes the reservation is settled against the exact cost the
// Report tallied — the difference is credited back, or debited further
// when the query overran its estimate (the bucket then runs a
// temporary overdraft that subsequent refill repays). A cache hit
// settles at zero: it consumed no source accesses, so it spends no
// tokens. One deliberate weakening keeps small tenants live: a FULL
// bucket always admits one query even when the estimate exceeds the
// burst capacity — otherwise a tenant whose burst is below a single
// query's cost could never run at all; the overdraft repays from
// refill as usual.
//
// # The fairness contract
//
// Admission across tenants with queued work is stride-scheduled: each
// tenant carries a virtual pass advanced by estimate/weight on every
// admission, and the waiter belonging to the smallest-pass tenant is
// admitted next (a tenant re-entering after idling resumes at the
// global virtual time, so idleness banks no priority). Over any
// saturated interval in which a set of tenants stays backlogged, each
// receives access-cost service proportional to its Weight — the
// property BenchmarkEngineThroughput_Saturated measures as a fairness
// index under 4× oversubscription.
//
// # The governor and load shedding
//
// Config.MaxConcurrent bounds the queries evaluating at once, and each
// admitted query is granted a prefetch/gather width of
// MaxWidth/inflight (floored at one): the engine clamps its pipelined
// gather fan-out and concurrent-executor width to the grant, so m lists
// × N callers never exceed one configured goroutine/buffer envelope no
// matter how many tenants are admitted.
//
// Work that cannot be served in time is rejected, not queued forever:
// a waiter sheds with a typed *OverloadError — carrying the tenant,
// its queue depth, and a RetryAfter advice — when its tenant's queue
// exceeds Config.MaxQueue, when its context deadline provably cannot
// be met (the token-refill ETA plus the concurrency queue-wait
// estimate overrun it), or when its bucket can never cover the
// reserve (zero refill) and nothing in flight could settle credits
// back. OverloadError implements the Transient capability, and the
// wire layer maps it to 429 with a Retry-After header, so resilient
// remote callers back off for exactly the advised interval instead of
// re-stampeding a shedding server.
//
// An engine without a scheduler (the default) has no admission layer
// at all: no metering, no reordering, no added synchronization — the
// Section 5 tallies and the result order of every existing path are
// untouched.
package sched
