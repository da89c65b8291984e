// Package fuzzydb is a from-scratch implementation of the system in
// Ronald Fagin's "Combining Fuzzy Information from Multiple Systems"
// (PODS 1996 / JCSS 1999): graded-set query semantics for middleware over
// heterogeneous subsystems, and Fagin's Algorithm (A₀) — the provably
// optimal algorithm for finding the top k answers to monotone queries
// with sublinear middleware cost.
//
// The package is a facade over the implementation packages. Typical use
// mirrors the paper's running example — a compact-disk store with a
// relational subsystem for Artist and a QBIC-like image subsystem for
// AlbumColor — through the request API: every evaluation takes a
// context.Context and per-request options:
//
//	artist := fuzzydb.NewRelationalSubsystem("Artist", artists)
//	color := fuzzydb.NewVectorSubsystem("AlbumColor", covers, targets)
//	eng, err := fuzzydb.NewEngine([]fuzzydb.Subsystem{artist, color})
//	rep, err := eng.QueryString(ctx,
//		`Artist = "Beatles" AND AlbumColor ~ "red"`,
//		fuzzydb.TopN(10))
//
// The report carries the answers (a graded set), the exact middleware
// cost (sorted and random accesses, Section 5 of the paper), and the plan
// the optimizer chose (A₀′ for min-conjunctions, B₀ for disjunctions,
// naive for non-monotone queries, A₀ otherwise).
//
// # Requests: cancellation, budgets, parallelism, streaming
//
// The paper's model is middleware talking to remote, independently slow
// subsystems, so evaluation is request-scoped. Canceling the context
// stops an evaluation promptly, mid-phase; TopN bounds the answer count;
// WithAccessBudget caps the Section 5 spend (the evaluation stops with
// ErrBudgetExceeded and a partial-cost report rather than overshooting);
// WithParallelism(p) keeps up to p subsystem accesses in flight at once
// (the pipelined executor below, at width p) with access tallies
// bit-identical to the serial execution, since readahead is buffered and
// only consumption is metered. For incremental consumption, Results
// streams answers in descending grade order:
//
//	for r, err := range eng.Results(ctx, q, fuzzydb.TopN(5)) {
//		if err != nil { ... }
//		fmt.Println(r.Object, r.Grade)
//	}
//
// # Latency hiding: the pipelined executor
//
// When subsystems are genuinely remote — a millisecond per call rather
// than nanoseconds — the dominant cost is waiting, and WithPrefetch(d)
// evaluates the request through the pipelined executor: a background
// prefetcher per subsystem keeps each sorted stream ahead of the
// algorithm by issuing batched sorted accesses whose depth adapts to the
// query and the source (open at the depth the algorithm expects to read
// to — A₀'s N^((m−1)/m)·k^(1/m) of Theorem 5.3, so a remote list is
// usually read in one round trip — or at 1 when it states none, then
// double on every stall up to a cap and shrink when the algorithm falls
// behind; d > 0 sets that cap, 0 keeps the default), while the
// random-access phase overlaps across subsystems AND objects —
// WithParallelism(p>1) caps the probes in flight, a wider-than-CPU
// default applies otherwise. Payment stays strictly on delivery,
// so the Section 5 tallies remain bit-identical to serial evaluation —
// prefetched-but-unconsumed ranks cost nothing, budgets reserve before
// delivery and a failed reservation closes the pipelines, and
// cancellation abandons even a wedged batch promptly.
// The report's Prefetch field carries the pipeline stats (deepest
// batch, stalls, physical calls, ranks fetched — the last minus the
// sorted tally is the readahead nobody consumed). NewLatencySource / WithSubsystemLatency
// simulate such backends for benchmarking; on the E2/m=5 workload with
// 1 ms/call sources the pipelined executor at its default width is over
// an order of magnitude faster than at one probe per subsystem.
//
// # Fault tolerance: fallible sources, resilience, degradation
//
// Real remote subsystems fail, so source access is fallible end to end.
// A source that can fail implements the optional subsys.FallibleSource
// interface (TryEntry/TryEntries/TryGrade alongside the infallible
// methods); every evaluation entry point then surfaces a terminal
// failure as a typed *SourceError — which list, at which rank or object,
// after how many attempts — with a valid partial-cost report, under
// every executor alike. Between the backend and the evaluation sit two
// wrappers: NewFaultSource injects seeded
// deterministic faults for testing (error rate, transient or permanent,
// fail-after-N, wedged calls, per-phase targeting), and ResilientSource
// adds retries with exponential backoff and full jitter, per-access
// timeouts, and a circuit breaker — a retried access is still one
// metered access, so transient faults behind a resilient wrapper leave
// results AND Section 5 tallies bit-identical to a fault-free run (the
// cross-executor equivalence fuzz pins this). At the engine level,
// WithDegradedLists(d) opts a request in to graceful degradation: a
// permanently failed list is dropped, the pruned query re-evaluates over
// the survivors (the answer equals a fresh query over them), and
// Report.Degraded records what was lost.
//
// # One object universe
//
// Every Source grades the objects 0,…,Len()−1, the universe of Section
// 4's database, and nothing else: grade memos, seen-sets and per-object
// counters are pooled flat arrays over it. A source whose sorted or
// random access names any other object fails its list with a
// *SourceError wrapping subsys.ErrOutsideUniverse, and the query with it.
//
// An in-memory list is read in spans. A serial evaluation copies a bare
// list ahead into a pooled buffer in one step per extension — to the
// depth the algorithm expects to read (A₀'s N^((m−1)/m)·k^(1/m), as the
// pipelined executor opens a remote list), or by doubling when it states
// none — and then delivers rank by rank from that buffer. Readahead is
// unmetered, so the Section 5 tallies are those of one sorted access per
// rank consumed, and a wrapped or remote source sees exactly the calls
// it saw before.
//
// # Deployment: the wire protocol and cmd/fuzzyserve
//
// The engine deploys as a network service. cmd/fuzzyserve serves a
// scoring database over a JSON/HTTP protocol (internal/wire) in two
// layers: the raw sorted lists as paged source RPCs (GET /v1/meta,
// POST /v1/entries, POST /v1/grades for random access, one object or a
// batch), and the full engine on the same
// mux (POST /v1/query for one-shot evaluation with the complete cost
// report, GET /v1/results for an NDJSON answer cursor that streams the
// continuation iterator and cancels the server-side evaluation when
// the client disconnects). Two client shapes consume it. A thin client
// posts whole queries — cmd/fuzzyquery -connect does this, printing
// the same report a local run prints. A full engine dials the source
// RPCs instead (wire.Dial): each remote list arrives as an ordinary
// Source that also implements subsys.FallibleSource (HTTP and
// transport failures flow through the typed-error, retry/breaker, and
// degradation machinery above — never a panic), binds per-request
// contexts to its network calls, and coalesces sorted spans into paged
// fetches over a pooled transport. Transparency is the contract, and
// it is pinned by loopback integration tests: results and Section 5
// tallies over wire-backed sources are bit-identical to in-process
// evaluation under every executor — the wire adds only latency, which
// is exactly what WithPrefetch hides (the _Wire benchmarks measure that
// win against a real network stack).
// See examples/wireserve for the minimal server-plus-client program.
//
// # Caching: epoch-versioned results over mutable sources
//
// Repeat queries dominate many read-heavy workloads, and a finished
// top-k answer is its own certificate of correctness (every object
// outside it aggregates to at most the k-th grade — the same bound the
// stop threshold τ = t(g̲₁,…,g̲ₘ) establishes). WithCache(n) equips an
// engine with a bounded LRU over completed reports, keyed by the
// normalized query AST, k, algorithm, aggregation law, and execution
// shape: a repeat request is served in O(k) with ZERO source accesses,
// bit-identical to recomputation (results and Section 5 tallies), with
// Report.Cache recording the hit, the data-version fingerprint, and
// the access cost saved. Only pure computations are cached — budgeted,
// degraded, and non-monotone evaluations recompute every time, as do the
// streaming entry points.
//
// Data may change under the cache. NewMutableSubsystem serves graded
// lists that support in-place grade updates: UpdateGrade replaces one
// object's grade with a new list version that shares the old one's flat
// base and carries a small overlay of moved entries (snapshots already
// handed to running evaluations or cursors are immutable), bumps the
// subsystem's epoch, and journals the change. A cache lookup whose entry lags the current
// epochs replays the missed updates through a threshold test against
// the entry's stored k-th grade: updates that provably cannot disturb
// the cached top k (lowered non-members; raises whose aggregate bound
// stays below the k-th grade) leave the entry serving hits. A raise
// that could enter or reorder the answer is repaired instead of
// evicted: under a monotone law only the raised object moved, so the
// new top k is the top k of the cached answer and that object, found by
// reading its grades the journal does not state — m−1 random accesses
// for one raise on an m-atom query, where a recompute pays thousands.
// The repaired report has Report.Cache.Repaired set and that probe as
// its cost; the entry then serves hits again. Only a lowered member,
// wholesale list replacement (Set) and journal overflow evict, and
// eng.Invalidate drops everything — instead of the evict-all a
// version-tag cache would do. The equivalence contract — hit, repair
// or miss, answers equal an always-recompute oracle — is pinned across
// executors and random update interleavings by the middleware fuzz
// harness; see package internal/cache for the revalidation argument and
// the staleness contract.
//
// # Admission control: tenants, fair scheduling, load shedding
//
// One engine process shared by many callers needs a policy for who
// runs when the offered load exceeds what the sources can serve.
// WithScheduler(NewScheduler(cfg)) places an admission layer in front
// of Query and Results, denominated in the same Section 5 access-cost
// units the engine meters: each tenant (named per request by
// WithTenant) holds a token bucket refilled at a configured rate of
// cost units per second, a query reserves its tenant's recent-cost
// estimate on admission and settles the reservation against the exact
// cost its Report tallied (a cache hit settles at zero), and tenants
// with queued work are admitted in weighted-fair order — over any
// saturated interval each backlogged tenant receives access-cost
// service proportional to its configured weight. A global
// MaxConcurrent bounds the evaluations in flight, and each admitted
// query is granted a share of a global MaxWidth prefetch/gather
// envelope, clamping its pipelined fan-out so total
// source pressure stays bounded no matter how many callers arrive.
//
// Work that cannot be served in time is shed, not queued forever: a
// request rejects with a typed *OverloadError — tenant, queue depth,
// and a RetryAfter advice — when its tenant's queue overflows or its
// context deadline provably cannot be met. cmd/fuzzyserve maps the
// shed to HTTP 429 with a Retry-After header, which resilient wire
// clients honor over their own exponential backoff, so a fleet drains
// at the server's advised pace. An engine built without WithScheduler
// has no admission layer at all: nothing is metered, queued, or
// reordered, and every report stays bit-identical to an engine that
// predates the scheduler.
//
// Lower-level building blocks — the algorithms, aggregation functions,
// graded sets, synthetic workload generators, and the experiment harness
// reproducing the paper's analysis — are exported as aliases so library
// users can compose them directly; see the type and function groups
// below.
package fuzzydb

import (
	"context"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/middleware"
	"fuzzydb/internal/query"
	"fuzzydb/internal/sched"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// Graded sets (Section 2 of the paper).
type (
	// Entry is one element of a graded set: an object with its grade.
	Entry = gradedset.Entry
	// GradedSet is a fuzzy set: objects mapped to grades in [0, 1].
	GradedSet = gradedset.GradedSet
	// List is a graded set materialized in descending-grade order.
	List = gradedset.List
)

// NewGradedSet returns an empty graded set.
func NewGradedSet() *GradedSet { return gradedset.New() }

// NewList builds a sorted graded list from entries.
func NewList(entries []Entry) (*List, error) { return gradedset.NewList(entries) }

// Aggregation functions (Section 3).
type (
	// AggFunc maps a grade vector to a grade; Monotone and Strict report
	// the properties the paper's theorems depend on.
	AggFunc = agg.Func
	// TNorm is a triangular norm (conjunction rule).
	TNorm = agg.TNorm
	// CoNorm is a triangular co-norm (disjunction rule).
	CoNorm = agg.CoNorm
)

// The standard rules and the catalogued t-norm zoo.
var (
	// Min is the standard fuzzy conjunction (Zadeh).
	Min = agg.Min
	// Max is the standard fuzzy disjunction (Zadeh).
	Max = agg.Max
	// Median is the middle order statistic (not strict; Remark 6.1).
	Median = agg.Median
	// ArithmeticMean averages grades (monotone and strict; not a t-norm).
	ArithmeticMean = agg.ArithmeticMean
	// GeometricMean is the multiplicative mean (monotone and strict).
	GeometricMean = agg.GeometricMean
	// AlgebraicProduct is the probabilistic t-norm x·y.
	AlgebraicProduct = agg.AlgebraicProduct
	// BoundedDifference is the Łukasiewicz t-norm max(0, x+y−1).
	BoundedDifference = agg.BoundedDifference
	// EinsteinProduct is the Einstein t-norm.
	EinsteinProduct = agg.EinsteinProduct
	// HamacherProduct is the Hamacher t-norm.
	HamacherProduct = agg.HamacherProduct
)

// NewWeighted builds the Fagin–Wimmers weighted form of base under
// weights (nonnegative, summing to 1).
func NewWeighted(base AggFunc, weights []float64) (AggFunc, error) {
	return agg.NewWeighted(base, weights)
}

// NewOWA builds Yager's ordered weighted averaging operator: grades are
// sorted descending and combined by the weight vector. OWA interpolates
// max, min, mean, median, and the gymnastics rule by choice of weights;
// it is strict exactly when the last weight is positive.
func NewOWA(weights []float64) (AggFunc, error) {
	return agg.NewOWA(weights)
}

// Parameterized t-norm families (all members monotone and strict, so the
// paper's bounds apply uniformly across each family).
var (
	// YagerTNorm is the Yager family: p=1 is bounded difference, p→∞
	// approaches min.
	YagerTNorm = agg.YagerTNorm
	// HamacherFamily sweeps Hamacher product (γ=0) through algebraic
	// (γ=1) to Einstein (γ=2) and beyond.
	HamacherFamily = agg.HamacherFamily
	// FrankTNorm is the Frank family: s→0 min, s→1 product, s→∞ bounded
	// difference.
	FrankTNorm = agg.FrankTNorm
	// DombiTNorm is the Dombi family: λ→∞ approaches min.
	DombiTNorm = agg.DombiTNorm
	// SchweizerSklarTNorm is the positive branch of the Schweizer–Sklar
	// family.
	SchweizerSklarTNorm = agg.SchweizerSklarTNorm
)

// ValidatedSource wraps a source with subsystem-contract checking:
// descending sorted order, no duplicate objects, grades in [0,1], and
// random access consistent with sorted access. Violations panic with a
// diagnostic; use it when integrating an untrusted subsystem.
func ValidatedSource(src Source) Source { return subsys.Validated(src) }

// Queries (Section 2) and their compiled form.
type (
	// Query is a Boolean combination of atomic queries.
	Query = query.Node
	// Atomic is an atomic query Attribute = Target.
	Atomic = query.Atomic
	// And is a fuzzy conjunction node.
	And = query.And
	// Or is a fuzzy disjunction node.
	Or = query.Or
	// Not is a fuzzy negation node.
	Not = query.Not
	// Semantics selects the connective rules (default: min/max/1−x).
	Semantics = query.Semantics
)

// ParseQuery reads a query in concrete syntax, e.g.
// `(Artist = "Beatles") AND (AlbumColor ~ "red")`.
func ParseQuery(s string) (Query, error) { return query.Parse(s) }

// StandardSemantics returns Zadeh's rules: min, max, 1−x.
func StandardSemantics() Semantics { return query.Standard() }

// SemanticsWithTNorm evaluates conjunctions with t and disjunctions with
// its dual co-norm.
func SemanticsWithTNorm(t TNorm) Semantics { return query.WithTNorm(t) }

// Subsystems (Section 4's access model).
type (
	// Source is a graded query result supporting sorted and random access.
	Source = subsys.Source
	// Subsystem answers atomic queries over one attribute.
	Subsystem = subsys.Subsystem
	// RelationalSubsystem grades crisply (0/1) from stored values.
	RelationalSubsystem = subsys.Relational
	// VectorSubsystem grades by feature-vector similarity (QBIC stand-in).
	VectorSubsystem = subsys.Vector
	// TextSubsystem grades by token overlap.
	TextSubsystem = subsys.Text
	// StaticSubsystem serves precomputed graded lists.
	StaticSubsystem = subsys.Static
)

// NewRelationalSubsystem builds a relational subsystem over values[obj].
func NewRelationalSubsystem(attr string, values []string) *RelationalSubsystem {
	return subsys.NewRelational(attr, values)
}

// NewVectorSubsystem builds a similarity subsystem over features[obj]
// with named target vectors.
func NewVectorSubsystem(attr string, features [][]float64, targets map[string][]float64) *VectorSubsystem {
	return subsys.NewVector(attr, features, targets)
}

// NewTextSubsystem builds a token-overlap subsystem over documents.
func NewTextSubsystem(attr string, docs []string) *TextSubsystem {
	return subsys.NewText(attr, docs)
}

// NewStaticSubsystem builds a subsystem serving registered graded lists.
func NewStaticSubsystem(attr string, n int) *StaticSubsystem {
	return subsys.NewStatic(attr, n)
}

// Mutable sources: versioned grade updates under the result cache.
type (
	// MutableSubsystem serves graded lists that support in-place grade
	// updates: UpdateGrade replaces one object's grade with a list
	// version sharing the old one's base plus an overlay of at most ⌈√N⌉
	// moved entries (snapshots handed to running evaluations stay
	// immutable), bumps the subsystem's epoch, and journals the change
	// so a result cache can invalidate selectively (see WithCache).
	MutableSubsystem = subsys.Mutable
	// VersionedSubsystem is the optional capability a result cache uses
	// to revalidate entries: a current epoch plus a bounded journal of
	// the grade updates since a given epoch.
	VersionedSubsystem = subsys.Versioned
	// GradeUpdate is one journaled grade change.
	GradeUpdate = subsys.Update
)

// DefaultJournalDepth is the update-journal bound NewMutableSubsystem
// uses; entries older than the journal evict cached results
// conservatively.
const DefaultJournalDepth = subsys.DefaultJournalDepth

// NewMutableSubsystem builds a mutable subsystem over n objects; register
// lists with Set, update grades in place with UpdateGrade.
func NewMutableSubsystem(attr string, n int) *MutableSubsystem {
	return subsys.NewMutable(attr, n, subsys.DefaultJournalDepth)
}

// SourceFromList wraps a graded list as a Source.
func SourceFromList(l *List) Source { return subsys.FromList(l) }

// NewLatencySource wraps a source with simulated remote-backend latency:
// every physical call sleeps perCall, so batched sorted access amortizes
// the price over the span. Access tallies are unchanged — latency moves
// wall-clock only. Wrapping a fallible source (e.g. a FaultSource)
// preserves its failure behavior: the latency is paid, then the error
// surfaces.
func NewLatencySource(src Source, perCall time.Duration) Source {
	return subsys.NewLatencySource(src, perCall)
}

// WithSubsystemLatency wraps a subsystem so every source it produces
// simulates remote-backend latency (see NewLatencySource): the stand-in
// for benchmarking and demonstrating the latency-hiding executors
// against slow backends.
func WithSubsystemLatency(sub Subsystem, perCall time.Duration) Subsystem {
	return subsys.WithLatency(sub, perCall)
}

// Fault tolerance: fallible sources, fault injection, and resilience.
type (
	// SourceError is the typed error every evaluation entry point returns
	// when a subsystem list fails terminally: which list, at which rank or
	// object, after how many attempts, wrapping the underlying cause
	// (errors.As / errors.Unwrap).
	SourceError = subsys.SourceError
	// FaultPlan is a seeded deterministic fault-injection plan for
	// NewFaultSource / WithSubsystemFaults: error rate, transient-vs-
	// permanent behavior, fail-after-N, wedge duration, and per-phase
	// targeting.
	FaultPlan = subsys.FaultPlan
	// FaultPhase selects which access phases a fault plan targets.
	FaultPhase = subsys.FaultPhase
	// FaultError is the error an injected fault surfaces as; Transient()
	// reports whether retrying can clear it.
	FaultError = subsys.FaultError
	// ResiliencePolicy configures the Resilient wrapper: retries with
	// exponential backoff and full jitter, per-access timeouts, and a
	// circuit breaker.
	ResiliencePolicy = subsys.Policy
	// BreakerPolicy configures the circuit breaker inside a
	// ResiliencePolicy.
	BreakerPolicy = subsys.Breaker
	// ResilienceStats counts what a resilient wrapper did: retries,
	// timeouts, breaker trips, and fast-fails.
	ResilienceStats = subsys.ResilienceStats
	// BreakerOpenError reports an access refused by an open circuit
	// breaker (not retryable until the cooldown elapses).
	BreakerOpenError = subsys.BreakerOpenError
	// RetryError reports an access that kept failing after the policy's
	// retries; it wraps the final underlying error.
	RetryError = subsys.RetryError
	// TimeoutError reports an access abandoned by PerAccessTimeout.
	TimeoutError = subsys.TimeoutError
	// DegradedList records one subsystem list a degraded evaluation
	// dropped (see WithDegradedLists and Report.Degraded).
	DegradedList = middleware.DegradedList
)

// Fault phases for FaultPlan.Phase (zero value targets both).
const (
	// FaultSortedAccess targets sorted (ranked) access only.
	FaultSortedAccess = subsys.FaultSortedAccess
	// FaultRandomAccess targets random (by-object) access only.
	FaultRandomAccess = subsys.FaultRandomAccess
	// FaultBoth targets both access phases.
	FaultBoth = subsys.FaultBoth
)

// NewFaultSource wraps a source with seeded deterministic fault
// injection: accesses hitting the plan's fault sites fail with a
// *FaultError instead of delivering. Fault sites are a pure function of
// the seed and the access coordinates (rank or object), so the same plan
// fails at the same places under every executor, shard count, and batch
// shape — the property the cross-executor equivalence tests rely on.
func NewFaultSource(src Source, plan FaultPlan) Source {
	return subsys.NewFaultSource(src, plan)
}

// WithSubsystemFaults wraps a subsystem so every source it produces
// injects faults per the plan (each query's source gets a seed derived
// from the plan seed and the query target, so distinct atoms fail
// independently but reproducibly).
func WithSubsystemFaults(sub Subsystem, plan FaultPlan) Subsystem {
	return subsys.WithFaults(sub, plan)
}

// ResilientSource wraps a fallible source with the policy's retry,
// timeout, and circuit-breaker machinery: transient faults are retried
// invisibly with exponential backoff and full jitter (a retried access
// is still ONE metered access — resilience changes wall-clock, never the
// Section 5 tallies), a wedged call is abandoned after PerAccessTimeout,
// and a tripped breaker fails fast with *BreakerOpenError until its
// cooldown half-opens it.
func ResilientSource(src Source, pol ResiliencePolicy) Source {
	return subsys.Resilient(src, pol)
}

// WithSubsystemResilience wraps a subsystem so every source it produces
// is resilient per the policy (each source gets its own breaker and
// backoff state; see ResilientSource).
func WithSubsystemResilience(sub Subsystem, pol ResiliencePolicy) Subsystem {
	return subsys.WithResilience(sub, pol)
}

// Algorithms (Section 4) and evaluation.
type (
	// Algorithm finds top-k answers through sorted and random access.
	Algorithm = core.Algorithm
	// Result is one answer: object and overall grade.
	Result = core.Result
	// Cost is the middleware access cost (Section 5).
	Cost = cost.Cost
	// CostModel prices sorted and random accesses (c₁, c₂).
	CostModel = cost.Model
	// Executor configures the pipelined executor, which overlaps the
	// physical source operations of an evaluation across subsystems; an
	// evaluation without one (no WithEvalExecutor) runs them serially.
	// Access tallies are the same either way.
	Executor = core.Pipelined
	// ExecContext carries one evaluation's context, executor, cost
	// model, and budget; library users driving algorithms directly build
	// one via core semantics (see Evaluate for the packaged form).
	ExecContext = core.ExecContext
	// EvalOption configures Evaluate (executor, cost model, budget).
	EvalOption = core.EvalOption
	// BudgetError reports an evaluation halted by its access budget,
	// with the limit and spend (errors.Is(err, ErrBudgetExceeded)).
	BudgetError = core.BudgetError
)

// ErrBudgetExceeded classifies evaluations halted by WithAccessBudget.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// PipelinedExecutor returns the latency-hiding executor for slow or
// remote subsystems: a background prefetcher per list issues batched
// sorted accesses at an adaptive depth (open at the depth the algorithm
// expects to reach, or at 1 when it states none, double on stall, shrink
// when the algorithm falls behind), never more than depth ranks per
// batch (depth ≤ 0 selects the default cap), and the random-access phase
// overlaps across subsystems and objects with up to width probes in
// flight (width ≤ 0 selects a wider-than-CPU default). Payment stays
// strictly on delivery, so Section 5 tallies are bit-identical to the
// serial execution. Sources must tolerate concurrent reads (all built-in
// ones do).
func PipelinedExecutor(width, depth int) Executor { return core.Pipelined{P: width, MaxDepth: depth} }

// WithEvalExecutor runs one Evaluate call on the pipelined executor x;
// without it the call is serial.
func WithEvalExecutor(x Executor) EvalOption { return core.WithExecutor(x) }

// WithEvalCostModel prices accesses for Evaluate's budget accounting.
func WithEvalCostModel(m CostModel) EvalOption { return core.WithCostModel(m) }

// WithEvalBudget caps the weighted access cost of one Evaluate call.
func WithEvalBudget(limit float64) EvalOption { return core.WithAccessBudget(limit) }

// The algorithm family.
var (
	// FaginsAlgorithm is A₀: correct for every monotone query, optimal
	// for monotone strict ones.
	FaginsAlgorithm Algorithm = core.A0{}
	// FaginsAlgorithmPrime is A₀′: the min-conjunction refinement.
	FaginsAlgorithmPrime Algorithm = core.A0Prime{}
	// DisjunctionAlgorithm is B₀ for max queries: cost mk.
	DisjunctionAlgorithm Algorithm = core.B0{}
	// MedianAlgorithm evaluates the median by subset decomposition, which
	// an Engine plans for (A AND B) OR (A AND C) OR (B AND C) on its own.
	MedianAlgorithm Algorithm = core.OrderStat{}
	// UllmanAlgorithm is the Section 9 sequential-probe algorithm (m=2).
	UllmanAlgorithm Algorithm = core.Ullman{}
	// FilterFirstAlgorithm evaluates a selective binary conjunct first
	// (Section 4's opening strategy); list 0 must be 0/1-graded.
	FilterFirstAlgorithm Algorithm = core.FilterFirst{}
	// ThresholdAlgorithm is TA, the successor of A₀ (extension).
	ThresholdAlgorithm Algorithm = core.TA{}
	// NaiveAlgorithm is the linear baseline.
	NaiveAlgorithm Algorithm = core.NaiveSorted{}
)

// Evaluate finds the top k answers of F_t(sources...) with the given
// algorithm under the caller's context, and reports the exact middleware
// cost — the full tallies on success, the partial spend when the
// evaluation stops early on cancellation or budget exhaustion.
func Evaluate(ctx context.Context, alg Algorithm, sources []Source, t AggFunc, k int, opts ...EvalOption) ([]Result, Cost, error) {
	return core.Evaluate(ctx, alg, sources, t, k, opts...)
}

// Engine: the Garlic-style middleware.
type (
	// Engine routes queries to subsystems, plans, and evaluates. Its
	// request API is Query / QueryString / Results (context plus
	// QueryOptions) and Do / Stream (context plus one Request).
	Engine = middleware.Middleware
	// Report is a query outcome: results, exact cost, and the plan. On
	// cancellation or budget exhaustion it carries the partial cost with
	// nil results.
	Report = middleware.Report
	// Plan describes the chosen algorithm and its justification.
	Plan = middleware.Plan
	// EngineOption configures NewEngine.
	EngineOption = middleware.Option
	// Request is one engine request as a value: the query and every
	// per-request knob, under the names the wire and the CLIs use.
	// Engine.Do and Engine.Stream evaluate one; the zero value of a field
	// means the engine default.
	Request = middleware.Request
	// QueryOption sets one field of a Request (TopN, WithAlgorithm,
	// WithParallelism, WithAccessBudget, WithCostModel, …): the
	// functional-option form Query, QueryString and Results take.
	QueryOption = middleware.QueryOption
	// UnknownAttributeError carries the attribute no subsystem owns
	// (errors.As; errors.Is ErrUnknownAttribute also matches).
	UnknownAttributeError = middleware.UnknownAttributeError
	// SizeMismatchError carries the attribute and sizes of a universe
	// disagreement.
	SizeMismatchError = middleware.SizeMismatchError
	// PipelineStats reports what a request's background prefetch
	// pipelines did (deepest batch, stalls, physical batched calls); see
	// Report.Prefetch.
	PipelineStats = subsys.PipelineStats
)

// Sentinels classifying engine errors (see the typed forms above).
var (
	// ErrUnknownAttribute reports an atom whose attribute no registered
	// subsystem owns.
	ErrUnknownAttribute = middleware.ErrUnknownAttribute
	// ErrSizeMismatch reports subsystems or results over different
	// object universes.
	ErrSizeMismatch = middleware.ErrSizeMismatch
	// ErrOutsideUniverse is the cause of the *SourceError a list fails
	// with when its source names an object outside 0…Len()−1.
	ErrOutsideUniverse = subsys.ErrOutsideUniverse
)

// NewEngine builds an engine over subsystems sharing one object universe.
func NewEngine(subsystems []Subsystem, opts ...EngineOption) (*Engine, error) {
	return middleware.New(subsystems, opts...)
}

// WithSemantics replaces the standard connective rules.
func WithSemantics(sem Semantics) EngineOption { return middleware.WithSemantics(sem) }

// WithObjectNames attaches display names to objects.
func WithObjectNames(names []string) EngineOption { return middleware.WithNames(names) }

// Result caching (see the package notes on caching).
type (
	// CacheInfo records how the result cache handled one request; see
	// Report.Cache.
	CacheInfo = middleware.CacheInfo
	// CacheStats are the result cache's cumulative counters
	// (eng.CacheStats).
	CacheStats = middleware.CacheStats
)

// WithCache equips the engine with a bounded result cache of the given
// capacity in entries (non-positive selects a default). Repeat
// cacheable queries are served in O(k) with zero source accesses and
// reports bit-identical to recomputation; grade updates on mutable
// subsystems evict only the entries they could disturb. Invalidate,
// CacheStats, and CacheLen on the engine manage and observe it.
func WithCache(capacity int) EngineOption { return middleware.WithCache(capacity) }

// Admission control (see the package notes on admission control).
type (
	// Scheduler is the admission-control layer WithScheduler installs:
	// per-tenant token buckets in access-cost units, weighted-fair
	// admission, a concurrency/width governor, and deadline-aware load
	// shedding. Build one with NewScheduler; one Scheduler may front
	// several engines to give them a shared admission domain.
	Scheduler = sched.Scheduler
	// SchedulerConfig configures NewScheduler: default Rate/Burst,
	// MaxConcurrent, MaxQueue, MaxWidth, and per-tenant overrides.
	SchedulerConfig = sched.Config
	// SchedulerTenantConfig is one tenant's weight and token-bucket
	// override inside SchedulerConfig.Tenants.
	SchedulerTenantConfig = sched.TenantConfig
	// OverloadError is the typed rejection of a shed request: the
	// tenant, its queue depth, and a RetryAfter advice (errors.As).
	OverloadError = sched.OverloadError
	// TenantStats is one tenant's admission counters (Scheduler.Stats).
	TenantStats = sched.TenantStats
)

// NewScheduler builds an admission scheduler for WithScheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return sched.New(cfg) }

// WithScheduler places an admission scheduler in front of the engine:
// every Query and Results call is first admitted against its tenant's
// token bucket and the weighted-fair queue, and settled with the
// request's exact access cost afterwards. Overload rejects with a
// typed *OverloadError. A nil scheduler leaves admission off.
func WithScheduler(s *Scheduler) EngineOption { return middleware.WithScheduler(s) }

// WithTenant names the admission tenant one request bills to under an
// engine built WithScheduler; without a scheduler it is inert. The
// empty name (the default) is the anonymous tenant.
func WithTenant(name string) QueryOption { return middleware.WithTenant(name) }

// Per-request options for Engine.Query, Engine.QueryString,
// Engine.Results, and Engine.Stream.

// DefaultTopN is the answer count a request gets without TopN.
const DefaultTopN = middleware.DefaultTopN

// TopN asks a request for the k best answers (default DefaultTopN; a k
// beyond the universe size means "all").
func TopN(k int) QueryOption { return middleware.TopN(k) }

// WithAlgorithm overrides the planner's algorithm choice for one
// request; the caller takes on the planner's job of matching algorithm
// to query shape.
func WithAlgorithm(alg Algorithm) QueryOption { return middleware.WithAlgorithm(alg) }

// WithParallelism evaluates one request on the pipelined executor with up
// to p subsystem accesses in flight at once (p ≤ 1: serial); tallies stay
// bit-identical to serial evaluation. It is for slow subsystems — over
// in-memory lists the serial default is faster — and, like WithPrefetch,
// needs sources that tolerate concurrent reads.
func WithParallelism(p int) QueryOption { return middleware.WithParallelism(p) }

// WithShards sets nothing: the engine evaluates every request over one
// slice of the universe. It stays, with WithShardPlan, only so that
// callers naming it still compile until they are edited; ROADMAP 4(a)
// deletes both.
//
// Deprecated: a no-op; drop it.
func WithShards(int) QueryOption { return func(*Request) {} }

// ShardPlanPolicy named the shard-boundary policies of a removed
// option: the engine does not shard, so there is nothing to choose. It
// stays, with its two constants and WithShardPlan, only so that callers
// naming them still compile until they are edited.
//
// Deprecated: it has no effect; drop it.
type ShardPlanPolicy int

// The removed shard-boundary policies.
//
// Deprecated: WithShardPlan ignores them; drop them.
const (
	ShardPlanEven ShardPlanPolicy = iota
	ShardPlanWeighted
)

// WithShardPlan sets nothing: the engine does not shard.
//
// Deprecated: a no-op kept so that callers naming it still compile;
// drop it.
func WithShardPlan(ShardPlanPolicy) QueryOption { return func(*Request) {} }

// WithPrefetch evaluates one request with the pipelined latency-hiding
// executor: background per-subsystem prefetchers keep sorted streams
// ahead of the algorithm with adaptively batched accesses, never more
// than depth ranks per batch (0 = the default cap), and random accesses
// overlap across subsystems and objects. Tallies stay bit-identical to
// serial evaluation; the report's Prefetch field carries the pipeline
// stats.
func WithPrefetch(depth int) QueryOption { return middleware.WithPrefetch(depth) }

// WithAccessBudget caps one request's weighted middleware cost; the
// evaluation stops with ErrBudgetExceeded and a partial-cost report
// rather than overshooting.
func WithAccessBudget(limit float64) QueryOption { return middleware.WithAccessBudget(limit) }

// WithCostModel prices sorted and random accesses for the request's
// budget accounting.
func WithCostModel(model CostModel) QueryOption { return middleware.WithCostModel(model) }

// WithDegradedLists opts one request in to graceful degradation: when a
// subsystem list fails permanently mid-query, the engine drops the
// failed atom and re-evaluates the pruned query over the surviving
// lists — the answer equals a fresh query over the survivors — up to
// maxDrop times, recording what was lost in Report.Degraded. Without
// this option (and always for Results, Stream, and Filter) a source
// failure fails fast with a typed *SourceError and a valid partial-cost
// report.
func WithDegradedLists(maxDrop int) QueryOption { return middleware.WithDegradedLists(maxDrop) }

// Synthetic workloads (Section 5's probabilistic model).
type (
	// Database is a scoring database: m graded lists over N objects.
	Database = scoredb.Database
	// DatabaseGenerator draws databases under the paper's workload model.
	DatabaseGenerator = scoredb.Generator
	// GradeLaw is a marginal grade distribution.
	GradeLaw = scoredb.GradeLaw
)

// Grade laws for the generator.
type (
	// UniformLaw is iid Uniform[0,1].
	UniformLaw = scoredb.Uniform
	// BinaryLaw is 0/1 with selectivity P.
	BinaryLaw = scoredb.Binary
	// BoundedLaw is Uniform[0,Max] (Section 9's regime).
	BoundedLaw = scoredb.BoundedAbove
)

// DatabaseSources adapts a scoring database's lists to Sources.
func DatabaseSources(db *Database) []Source {
	out := make([]Source, db.M())
	for i := range out {
		out[i] = subsys.FromList(db.List(i))
	}
	return out
}
