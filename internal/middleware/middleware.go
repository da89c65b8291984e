// Package middleware is the Garlic stand-in: it registers subsystems by
// attribute, parses and plans queries, evaluates them with the optimal
// algorithm from the core package, and reports exact middleware costs.
//
// # The request API
//
// Evaluation is request-scoped: Query takes a context and per-request
// functional options, so a caller can bound, cancel, and parallelize
// each evaluation independently of how the engine was built —
//
//	rep, err := mw.Query(ctx, q, TopN(10), WithParallelism(4),
//		WithAccessBudget(5000))
//
// WithPrefetch(d) evaluates through the pipelined latency-hiding
// executor — background per-subsystem prefetchers with adaptive batched
// readahead, random accesses overlapped across subsystems and objects —
// for requests whose subsystems are genuinely remote; the report then
// carries the pipeline stats.
//
// Results is the streaming form: it yields answers one at a time in
// descending grade order (an iter.Seq2), widening the underlying top-r
// computation page by page over shared counted lists, so "the next k
// best" resumes from the prefixes already paid for. On cancellation or
// budget exhaustion Query returns the partial-cost report together with
// the error (errors.Is context.Canceled / core.ErrBudgetExceeded).
//
// # One path
//
// Every entry point lowers its request once and evaluates through one of
// two core calls over one slice of the universe. Request.lower turns the
// request into a core.ShardConfig (the only place parallelism, prefetch
// and the scheduler's width grant are given a meaning for execution).
// Query, TopKInternal and Filter then run core.Run — with the plan's
// algorithm at k as the body, or the threshold filter — as does a
// result-cache repair (cache.go), whose body reads a few grades; Results
// and Stream run core.NewPaginator. Both run on core's one slice driver:
// it validates the sources, opens the slice, runs the body, applies the
// final net for failed sources and tallies. A one-shot top k is the
// first page of a paginator's evaluation.
//
// The features layered on top are degenerate cases, not branches: an
// engine without WithCache, or a request that may not be cached, skips
// the lookup-and-store steps around the same evaluation;
// WithDegradedLists(0) is the degradation loop's first iteration; a nil
// scheduler admits with a nil grant.
//
// # Failure: typed errors and graceful degradation
//
// A subsystem whose sources implement subsys.FallibleSource can fail
// mid-query. By default every entry point fails fast: the terminal
// failure surfaces as a typed *subsys.SourceError (which list, at which
// rank or object, after how many attempts; errors.As-selectable)
// together with a valid partial-cost report of everything spent up to
// the failure. WithDegradedLists(maxDrop) opts a request in to graceful
// degradation instead: a permanently failed list is dropped, the query
// is re-planned and re-evaluated over the surviving subsystems — the
// semantics are pinned: the degraded answer equals a fresh query over
// the survivors — up to maxDrop times, with Report.Degraded recording
// each dropped list (atom, attempts, cause, spend sunk into the failed
// evaluation, included in the report's total cost). Only Query
// degrades; the streaming entry points always fail fast, since their
// already-yielded answers cannot be revised.
// Resilience (retries, timeouts, breakers) lives below this layer: wrap
// subsystems with subsys.WithResilience so transient faults never reach
// the middleware at all.
//
// # Planning
//
// Planning follows the paper's results directly:
//
//   - conjunction of atoms under min            → A₀′ (Theorem 4.4)
//   - other monotone queries                    → A₀ (Theorem 4.2)
//   - disjunction of atoms under max            → B₀ (Theorem 4.5)
//   - under min/max, the OR of the ANDs of all  → subset decomposition
//     j-subsets of m atoms (the j-th largest)     (Remark 6.1)
//   - non-monotone queries (any negation)       → naive, the only safe
//     choice; by Theorem 7.1 queries like Q ∧ ¬Q genuinely require
//     linear cost, so this is not pessimism
//
// Section 8's two flavors of conjunction are both available: an external
// conjunction always evaluates atoms in separate subsystem calls and
// combines them under the middleware's semantics; an internal conjunction
// pushes a multi-atom conjunction down to a subsystem that owns all of
// its attributes and is willing to evaluate it under its own — possibly
// different — semantics.
package middleware

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cache"
	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/query"
	"fuzzydb/internal/sched"
	"fuzzydb/internal/subsys"
)

// Middleware routes queries to subsystems and evaluates Boolean
// combinations over the combined graded results.
type Middleware struct {
	subsystems  map[string]subsys.Subsystem
	sem         query.Semantics
	n           int
	names       []string
	resultCache *cache.Cache     // nil without WithCache; see cache.go
	sched       *sched.Scheduler // nil without WithScheduler; see sched.go
}

// Errors returned by the middleware. The sentinels classify; the typed
// forms below carry the offending attribute and sizes for errors.As.
var (
	// ErrUnknownAttribute reports an atom whose attribute no registered
	// subsystem owns.
	ErrUnknownAttribute = errors.New("middleware: unknown attribute")
	// ErrSizeMismatch reports subsystems over different object universes.
	ErrSizeMismatch = errors.New("middleware: subsystems disagree on universe size")
)

// UnknownAttributeError is the typed form of ErrUnknownAttribute:
//
//	var uae *middleware.UnknownAttributeError
//	if errors.As(err, &uae) { suggestClosest(uae.Attr) }
type UnknownAttributeError struct {
	// Attr is the attribute no registered subsystem owns.
	Attr string
}

// Error implements error.
func (e *UnknownAttributeError) Error() string {
	return fmt.Sprintf("%v: %q", ErrUnknownAttribute, e.Attr)
}

// Unwrap ties the typed error to the ErrUnknownAttribute sentinel, so
// existing errors.Is checks keep working.
func (e *UnknownAttributeError) Unwrap() error { return ErrUnknownAttribute }

// SizeMismatchError is the typed form of ErrSizeMismatch: the named
// attribute's subsystem (or query result) covers Got objects where the
// engine's universe has Want.
type SizeMismatchError struct {
	// Attr is the attribute whose subsystem or result disagreed.
	Attr string
	// Got is the size the subsystem or result reported.
	Got int
	// Want is the engine's universe size.
	Want int
}

// Error implements error.
func (e *SizeMismatchError) Error() string {
	return fmt.Sprintf("%v: %q has %d objects, want %d", ErrSizeMismatch, e.Attr, e.Got, e.Want)
}

// Unwrap ties the typed error to the ErrSizeMismatch sentinel.
func (e *SizeMismatchError) Unwrap() error { return ErrSizeMismatch }

// Option configures the middleware.
type Option func(*Middleware)

// WithSemantics replaces the standard (min/max/1−x) rules.
func WithSemantics(sem query.Semantics) Option {
	return func(m *Middleware) { m.sem = sem }
}

// WithNames attaches display names to objects (names[obj]).
func WithNames(names []string) Option {
	return func(m *Middleware) { m.names = names }
}

// New builds a middleware over the given subsystems. All subsystems must
// grade the same universe 0,…,N−1.
func New(subsystems []subsys.Subsystem, opts ...Option) (*Middleware, error) {
	if len(subsystems) == 0 {
		return nil, errors.New("middleware: no subsystems")
	}
	m := &Middleware{
		subsystems: make(map[string]subsys.Subsystem, len(subsystems)),
		sem:        query.Standard(),
		n:          subsystems[0].Size(),
	}
	for _, s := range subsystems {
		if s.Size() != m.n {
			return nil, &SizeMismatchError{Attr: s.Attribute(), Got: s.Size(), Want: m.n}
		}
		if _, dup := m.subsystems[s.Attribute()]; dup {
			return nil, fmt.Errorf("middleware: duplicate subsystem for attribute %q", s.Attribute())
		}
		m.subsystems[s.Attribute()] = s
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.names != nil && len(m.names) != m.n {
		return nil, fmt.Errorf("middleware: %d names for %d objects", len(m.names), m.n)
	}
	return m, nil
}

// N returns the universe size.
func (m *Middleware) N() int { return m.n }

// Name returns the display name of obj, or its numeric form.
func (m *Middleware) Name(obj int) string {
	if m.names != nil && obj >= 0 && obj < len(m.names) {
		return m.names[obj]
	}
	return fmt.Sprintf("#%d", obj)
}

// Plan describes how a query will be evaluated.
type Plan struct {
	// Algorithm chosen by the planner.
	Algorithm core.Algorithm
	// Atoms in evaluation order, one subsystem call each.
	Atoms []query.Atomic
	// Agg is the derived aggregation function over the atoms' grades.
	Agg agg.Func
	// Reason is a one-line justification referencing the paper.
	Reason string
	// norm is the normalized query the plan was compiled from: what the
	// result cache spells its key with (nil for hand-built plans).
	norm query.Node
}

// PlanQuery normalizes and compiles q, then chooses the algorithm per
// the paper's results. Normalization applies only the equivalence
// rewrites that are sound for the configured semantics (Theorem 3.1
// licenses the full set for the standard rules); it can upgrade plans —
// NOT NOT (A AND B) normalizes to a conjunction evaluable by A₀′ instead
// of forcing the naive algorithm.
func (m *Middleware) PlanQuery(q query.Node) (*Plan, error) {
	q = query.Rewrite(q, query.RulesFor(m.sem))
	c, err := query.Compile(q, m.sem)
	if err != nil {
		return nil, err
	}
	for _, a := range c.Atoms {
		if _, ok := m.subsystems[a.Attr]; !ok {
			return nil, &UnknownAttributeError{Attr: a.Attr}
		}
	}
	p := &Plan{Atoms: c.Atoms, Agg: c.Func, norm: q}
	j := m.orderStatJ(q, c.Atoms)
	switch {
	case !c.Func.Monotone():
		p.Algorithm = core.NaiveSorted{}
		p.Reason = "non-monotone (negation present): naive evaluation; hard queries are Θ(N) (Thm 7.1)"
	case len(c.Atoms) == 1:
		p.Algorithm = core.B0{}
		p.Reason = "single list: top-k is the sorted prefix (B0 degenerate case)"
	case j > 0:
		p.Algorithm = core.OrderStat{J: j}
		p.Reason = fmt.Sprintf("OR of the ANDs of every %d-subset under min/max is order statistic %d: subset decomposition, O(√(Nk)) for the median (Rem 6.1)", j, j)
	case c.Shape == query.ShapeDisjunction && m.sem.Or.Name() == agg.Max.Name():
		p.Algorithm = core.B0{}
		p.Reason = "disjunction under max: B0, cost mk independent of N (Thm 4.5, Rem 6.1)"
	case c.Shape == query.ShapeConjunction && m.sem.And.Name() == agg.Min.Name():
		if drive, sel, ok := m.selectiveConjunct(c.Atoms); ok {
			p.Algorithm = core.FilterFirst{Drive: drive}
			p.Reason = fmt.Sprintf("selective crisp conjunct %q (selectivity %.4f): evaluate it first, probe the rest (Sec 4)",
				c.Atoms[drive].Attr, sel)
			break
		}
		p.Algorithm = core.A0Prime{}
		p.Reason = "conjunction under min: A0' candidates refinement (Thm 4.4)"
	default:
		p.Algorithm = core.A0{}
		p.Reason = "monotone query: A0, cost O(N^((m-1)/m) k^(1/m)) w.h.p. (Thms 4.2, 5.3)"
	}
	return p, nil
}

// orderStatJ recognizes Remark 6.1's order-statistic form under min/max:
// a normalized query that is the OR of plain ANDs of atoms whose atom sets
// are exactly the j-subsets of all m compiled atoms, 2 ≤ j ≤ m−1. Atom
// order and repeated disjuncts do not matter (max is idempotent), and
// normalization has deduplicated the atoms of each AND. It returns j, or 0.
func (m *Middleware) orderStatJ(q query.Node, atoms []query.Atomic) int {
	or, ok := q.(query.Or)
	if !ok || len(or.Children) < 3 || len(atoms) > 64 || m.sem.And.Name() != agg.Min.Name() || m.sem.Or.Name() != agg.Max.Name() {
		return 0
	}
	j, sets := 0, make(map[uint64]bool, len(or.Children))
	for _, d := range or.Children {
		and, ok := d.(query.And)
		if !ok || (j != 0 && len(and.Children) != j) {
			return 0
		}
		j = len(and.Children)
		var set uint64
		for _, n := range and.Children {
			a, ok := n.(query.Atomic)
			if !ok {
				return 0
			}
			set |= 1 << slices.Index(atoms, a)
		}
		sets[set] = true
	}
	// All j-subsets are there when the distinct sets number C(m, j) =
	// C(m, m−j); C(m, i) grows up to i = m/2, so stop once past len(sets).
	subsets := 1
	for i := 0; i < min(j, len(atoms)-j) && subsets <= len(sets); i++ {
		subsets = subsets * (len(atoms) - i) / (i + 1)
	}
	if j < 2 || j >= len(atoms) || subsets != len(sets) {
		return 0
	}
	return j
}

// SelectivityEstimator is the optional statistics interface a subsystem
// can provide (relational engines keep these). The planner uses it to
// pick the Section 4 "evaluate the selective crisp conjunct first" plan.
type SelectivityEstimator interface {
	Selectivity(target string) float64
}

// planK is the k the crossover rule assumes; the plan stays correct for
// any k, only the constant-factor tradeoff shifts.
const planK = 10

// selectiveConjunct looks for the most selective atom whose subsystem
// reports statistics, and accepts it when filter-first is expected to
// beat A₀: cost ≈ s·N·m against ≈ 2m·√(Nk), i.e. s ≤ 2√(k/N).
func (m *Middleware) selectiveConjunct(atoms []query.Atomic) (drive int, sel float64, ok bool) {
	best := -1
	bestSel := 2.0
	for i, a := range atoms {
		est, isEst := m.subsystems[a.Attr].(SelectivityEstimator)
		if !isEst {
			continue
		}
		if s := est.Selectivity(a.Target); s < bestSel {
			bestSel = s
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	// Cap the crossover at 10%: at small N the √(k/N) rule degenerates
	// (everything looks selective), and A0' is the safer general plan.
	threshold := 2 * math.Sqrt(float64(planK)/float64(m.n))
	if threshold > 0.1 {
		threshold = 0.1
	}
	if bestSel > threshold {
		return 0, 0, false
	}
	return best, bestSel, true
}

// Report is the outcome of a query evaluation.
type Report struct {
	// Results in descending grade order. Nil when the evaluation stopped
	// early (cancellation, budget): the report then carries the partial
	// cost only.
	Results []core.Result
	// Cost is the exact middleware access cost of the evaluation — the
	// full tallies on success, the partial spend on an early stop.
	Cost cost.Cost
	// PerList breaks the cost down by atom, aligned with Plan.Atoms: how
	// much sorted and random access each subsystem served. Nil when the
	// evaluation was abandoned with accesses in flight.
	PerList []cost.Cost
	// Degraded lists the subsystem lists a degraded evaluation dropped
	// (WithDegradedLists), in drop order: which atom, how many attempts,
	// the terminal error, and the cost sunk into the failed attempt. Nil
	// when the evaluation never degraded. The Results and Cost fields
	// then describe the pruned query over the survivors, with the failed
	// attempts' spend folded into Cost.
	Degraded []DegradedList
	// Prefetch reports what the pipelined executor's background
	// prefetchers did (deepest adaptive batch, stalls, physical batched
	// calls and the ranks they read), summed over the subsystem lists
	// (MaxDepth is the deepest any list grew). Fetched minus Cost.Sorted
	// is the readahead the query never consumed. Nil unless the request
	// ran on the pipelined executor (WithPrefetch or WithParallelism(p>1))
	// and the pipelines engaged.
	Prefetch *subsys.PipelineStats
	// Cache records how the result cache handled this request — hit,
	// repair or miss, the source-epoch fingerprint the answer reflects,
	// and (on a hit) the access cost the cache saved. Nil when the engine
	// has no cache or the request was not cacheable (budgeted, degraded
	// or non-monotone evaluation). A hit carries the cached Results and
	// the original computation's Cost, PerList and Prefetch sections
	// verbatim: results bit-identical to what recomputing would
	// return (provably so even after grade updates the entry survived or
	// was repaired for); tallies describe the original computation — see
	// package cache. A repair (Cache.Repaired) carries the repaired
	// Results, and Cost and PerList of the random accesses it read, with
	// no sorted access; whatever the request shape, it ran unpipelined,
	// so Prefetch is nil. A repair that fails falls back to the
	// recompute, whose report then also counts the reads the repair spent
	// in Cost.
	Cache *CacheInfo
	// Plan that produced the results.
	Plan *Plan
}

// DefaultTopN is the number of answers Query returns when TopN is not
// given.
const DefaultTopN = 10

// Request is one evaluation request, spelled once: the engine evaluates
// it (Do, Stream), the wire carries it (wire.QueryRequest is this type:
// the JSON body of POST /v1/query and, by the same names, the URL form
// of GET /v1/results) and the CLIs bind their flags onto its fields.
//
// One rule covers every field: the zero value means the engine default.
// A server decodes a body or URL onto a zero request, so an absent name
// is the default and a present one wins. Prefetch is a pointer
// because cap 0 (the default cap) is meaningful and distinct from "off".
// Algorithm and Model are in-process only and never cross the wire.
type Request struct {
	// Query in the engine's concrete syntax, e.g. `A1 = "*" AND A2 = "*"`.
	// Do and Stream parse it; the query.Node entry points ignore it.
	Query string `json:"query"`
	// K is the number of answers (TopN); 0 means DefaultTopN.
	K int `json:"k,omitempty"`
	// Parallelism caps the source operations in flight
	// (WithParallelism).
	Parallelism int `json:"parallelism,omitempty"`
	// Budget caps the weighted access cost (WithAccessBudget); 0 = none.
	Budget float64 `json:"budget,omitempty"`
	// Prefetch selects the pipelined executor with this cap on its
	// adaptive readahead depth (WithPrefetch; 0 = the default cap);
	// nil = off.
	Prefetch *int `json:"prefetch,omitempty"`
	// Degrade allows dropping up to this many permanently failed lists
	// (WithDegradedLists); 0 = fail fast.
	Degrade int `json:"degrade,omitempty"`
	// Tenant names the admission-control tenant this request bills to
	// under a scheduler (WithTenant); over the wire the X-Fuzzydb-Tenant
	// header is an equivalent out-of-band form (this field wins). Empty
	// selects the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Algorithm overrides the planner's choice (WithAlgorithm); nil lets
	// the planner choose.
	Algorithm core.Algorithm `json:"-"`
	// Model prices accesses for budget accounting (WithCostModel); the
	// zero model means cost.Unweighted.
	Model cost.Model `json:"-"`

	widthCap int // scheduler width grant; 0 = no cap (sched.go)
}

// QueryOption sets one field of a Request (see Query and Results).
type QueryOption func(*Request)

// TopN asks for the k best answers (0, like not asking, means
// DefaultTopN). A k beyond the universe size is clamped to it — "the best
// ten of seven" means all seven — while k < 0 is still an error. For
// Results it is also the page size of the underlying incremental widening.
func TopN(k int) QueryOption {
	return func(r *Request) { r.K = k }
}

// WithAlgorithm overrides the planner's choice. The caller takes on the
// planner's job of matching algorithm to query shape (e.g. B₀ is only
// correct under max, A₀′ under min); correctness guarantees are the
// algorithm's own.
func WithAlgorithm(alg core.Algorithm) QueryOption {
	return func(r *Request) { r.Algorithm = alg }
}

// WithParallelism evaluates the request with the pipelined executor at
// width p: up to p source operations in flight at once (see
// core.Pipelined), so — as under WithPrefetch — the sources must tolerate
// concurrent reads, and the report carries Prefetch stats. p ≤ 1 means
// serial. Access tallies are bit-identical to a serial evaluation's;
// only wall-clock changes, and only for the better over slow subsystems
// (over in-memory lists serial is faster).
func WithParallelism(p int) QueryOption {
	return func(r *Request) { r.Parallelism = p }
}

// WithPrefetch evaluates the request with the pipelined executor, the
// latency-hiding transport for slow or remote subsystems: a background
// prefetcher per subsystem list keeps sorted streams ahead of the
// algorithm by issuing batched sorted accesses at an adaptive depth —
// open at the depth the algorithm expects to read to (the A₀ family
// states Theorem 5.3's N^((m−1)/m)·k^(1/m)) or at 1 when it states none,
// double on stall, shrink when the algorithm falls behind — never past
// depth ranks per batch (0 = subsys.DefaultPrefetchCap); and the
// random-access phase overlaps across subsystems and objects, up to
// WithParallelism(p>1) probes in flight or, without it, a wider-than-CPU
// default. WithParallelism(p>1) alone is this executor too, at the
// default cap.
// Access tallies are bit-identical to a serial evaluation's; only
// wall-clock changes.
func WithPrefetch(depth int) QueryOption {
	// The option owns one cap for its whole life: applying it to a
	// request stores that address and allocates nothing per query.
	depth = max(depth, 0)
	return func(r *Request) { r.Prefetch = &depth }
}

// WithAccessBudget bounds the weighted middleware cost of the request:
// the evaluation stops with core.ErrBudgetExceeded — and a partial-cost
// report — before it would cross the limit (see core.WithAccessBudget).
// Non-positive means unlimited.
func WithAccessBudget(limit float64) QueryOption {
	return func(r *Request) { r.Budget = limit }
}

// WithCostModel prices sorted and random accesses for budget accounting
// (default cost.Unweighted).
func WithCostModel(model cost.Model) QueryOption {
	return func(r *Request) { r.Model = model }
}

// newRequest is the request the options describe, engine defaults
// filled in: the one point an option-built request gets them, as Do and
// Stream are for a request passed as a value.
func newRequest(q string, opts []QueryOption) Request {
	r := Request{Query: q}
	for _, opt := range opts {
		opt(&r)
	}
	return r.withDefaults()
}

// withDefaults gives the zero K and Model their meaning; every other
// field's zero value is already what the code below reads as "default".
func (r Request) withDefaults() Request {
	if r.K == 0 {
		r.K = DefaultTopN
	}
	if r.Model == (cost.Model{}) {
		r.Model = cost.Unweighted
	}
	return r
}

// lower is the one place a request configuration becomes a core
// configuration, and so the one place parallelism, prefetch and the
// scheduler's width grant (sched.go) are given a meaning for execution.
//
// WithParallelism(p > 1) is the pipelined executor at width p, clamped
// by the grant — the cap on source operations in flight — with or
// without WithPrefetch, while p ≤ 1 (the "serial" default) stays serial
// even under a grant, and a WithPrefetch request without it keeps the
// executor's wider default, capped by the grant alone, so admitted
// queries divide the global envelope instead of each claiming the
// executor default.
func (r Request) lower() core.ShardConfig {
	sc := core.ShardConfig{
		Budget:        r.Budget,
		Model:         r.Model,
		PrefetchWidth: r.widthCap,
	}
	if r.Prefetch != nil {
		// A negative cap, which only a hand-built Request can carry, reads
		// as the default, like WithPrefetch makes it.
		sc.Prefetch, sc.PrefetchCap = true, max(*r.Prefetch, 0)
	}
	if r.Parallelism > 1 {
		sc.Prefetch, sc.PrefetchWidth = true, r.Parallelism
		if r.widthCap > 0 {
			sc.PrefetchWidth = min(sc.PrefetchWidth, r.widthCap)
		}
	}
	return sc
}

// clampK caps k at the universe size ("the best ten of seven" means all
// seven); k < 1 is left for checkArgs to reject.
func (m *Middleware) clampK(k int) int {
	if k > m.n {
		return m.n
	}
	return k
}

// Query plans and evaluates q under the caller's context: the single
// entry point of the request API. Options bound the answer count (TopN),
// pin an algorithm (WithAlgorithm), run the subsystem accesses
// concurrently (WithParallelism), and cap the spend (WithAccessBudget,
// WithCostModel).
//
// On success the report carries the answers, the exact Section 5 access
// cost, its per-subsystem breakdown, and the plan. On cancellation or
// budget exhaustion Query returns the error together with a partial-cost
// report, so callers can account for what an interrupted evaluation
// spent.
// With WithDegradedLists(d), a permanent subsystem failure mid-query
// (typed *subsys.SourceError) does not end the request: up to d failed
// lists are dropped, the pruned query is re-planned and re-evaluated
// over the survivors, and the report records what was lost
// (Report.Degraded) along with the full spend including the failed
// attempts. Without the option a source failure fails fast: the typed
// error plus a valid partial-cost report.
// Under an engine built WithScheduler, the request is first admitted
// against its tenant's token bucket and the weighted-fair queue (see
// WithTenant); an overloaded scheduler rejects with a typed
// *sched.OverloadError before any planning work, and the admitted
// request's exact cost settles its reservation afterwards.
func (m *Middleware) Query(ctx context.Context, q query.Node, opts ...QueryOption) (*Report, error) {
	return m.do(ctx, q, newRequest("", opts))
}

// Do evaluates one Request: Query with the request as a value instead of
// as options. It is what QueryString and the wire's POST /v1/query call,
// so a request means the same thing however it arrived.
func (m *Middleware) Do(ctx context.Context, req Request) (*Report, error) {
	return m.doText(ctx, req.withDefaults())
}

// doText parses the query of a request whose defaults are filled in and
// evaluates it.
func (m *Middleware) doText(ctx context.Context, req Request) (*Report, error) {
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	return m.do(ctx, q, req)
}

// do admits the request, evaluates it, and settles the grant with the
// exact cost.
func (m *Middleware) do(ctx context.Context, q query.Node, req Request) (*Report, error) {
	grant, err := m.admit(ctx, &req)
	if err != nil {
		return nil, err
	}
	rep, err := m.query(ctx, q, req)
	grant.Settle(settledCost(req, rep))
	return rep, err
}

// query is the path of every admitted Query: plan once, consult the
// result cache when the request is cacheable (cache.go), evaluate —
// degrading by pruning the failed atom from q and re-planning — and
// store what a cacheable miss computed.
func (m *Middleware) query(ctx context.Context, q query.Node, req Request) (*Report, error) {
	plan, err := m.plan(q, req)
	if err != nil {
		return nil, err
	}
	key, cacheable := m.cacheKey(plan, req)
	var epochs []uint64
	var sunk cost.Cost // what a repair that failed spent
	if cacheable {
		var rep *Report
		if rep, sunk = m.cacheLookup(ctx, key, plan, req); rep != nil {
			return rep, nil
		}
		// Miss: snapshot the source epochs BEFORE anything is materialized.
		// An update racing the computation then leaves the entry stamped
		// strictly behind the data it may contain, so the next lookup
		// revalidates (at worst spuriously) instead of serving a stale
		// answer.
		epochs = m.atomEpochs(plan.Atoms)
	}
	rep, err := m.evaluate(ctx, q, plan, req)
	if cacheable && err == nil {
		m.cacheStore(key, plan, rep, epochs)
	}
	if rep != nil {
		// After the store: the entry saves what the recompute cost.
		rep.Cost = rep.Cost.Add(sunk)
	}
	return rep, err
}

// plan is PlanQuery plus the request's WithAlgorithm pin.
func (m *Middleware) plan(q query.Node, req Request) (*Plan, error) {
	plan, err := m.PlanQuery(q)
	if err == nil && req.Algorithm != nil {
		plan.Algorithm = req.Algorithm
		plan.Reason = fmt.Sprintf("algorithm pinned to %s by WithAlgorithm", req.Algorithm.Name())
	}
	return plan, err
}

// evaluate executes plan, q's plan, and is the one degradation loop: when
// the evaluation dies of a degradable source failure (see degradeTarget)
// it prunes the failed atom from q and re-plans — if nothing survives,
// the request fails with the original error and report — records the
// loss and the cost sunk into the failed attempt, and goes again.
func (m *Middleware) evaluate(ctx context.Context, q query.Node, plan *Plan, req Request) (*Report, error) {
	var degraded []DegradedList
	var sunk cost.Cost
	for {
		rep, err := m.execute(ctx, plan, req)
		if victim, dl, ok := degradeTarget(plan, rep, err, req.Degrade-len(degraded)); ok {
			if q = pruneAtom(q, plan.Atoms[victim]); q != nil {
				if plan, err = m.plan(q, req); err != nil {
					return nil, err
				}
				degraded = append(degraded, dl)
				sunk = sunk.Add(dl.Cost)
				continue
			}
		}
		if rep != nil && len(degraded) > 0 {
			// The total accounts for everything the whole request spent.
			rep.Degraded = degraded
			rep.Cost = rep.Cost.Add(sunk)
		}
		return rep, err
	}
}

// QueryString is Do over the request the options describe for q.
func (m *Middleware) QueryString(ctx context.Context, q string, opts ...QueryOption) (*Report, error) {
	return m.doText(ctx, newRequest(q, opts))
}

// Results evaluates q incrementally: a push iterator over answers in
// descending grade order, delivering "the next k best" on demand — the
// continuation feature noted after Theorem 4.2 — until the universe is
// exhausted or the consumer stops. Pages of TopN answers are computed at
// a time over shared counted lists, so deeper pages resume from the
// prefixes already paid for rather than starting over.
//
// The options of Query apply per request; a budget bounds the cumulative
// cost across all pages. The stream releases its list state when it
// ends. On an error (cancellation, budget, a planning failure, or a
// non-paginable algorithm pinned via WithAlgorithm) the iterator yields
// one (zero Result, err) pair and stops.
func (m *Middleware) Results(ctx context.Context, q query.Node, opts ...QueryOption) iter.Seq2[core.Result, error] {
	return m.stream(ctx, q, newRequest("", opts))
}

// Stream is Results with the request as a value: what ResultsString and
// the wire's GET /v1/results call. A parse failure yields one (zero
// Result, err) pair.
func (m *Middleware) Stream(ctx context.Context, req Request) iter.Seq2[core.Result, error] {
	return m.streamText(ctx, req.withDefaults())
}

// streamText is doText's twin for Stream.
func (m *Middleware) streamText(ctx context.Context, req Request) iter.Seq2[core.Result, error] {
	q, err := query.Parse(req.Query)
	if err != nil {
		return func(yield func(core.Result, error) bool) {
			yield(core.Result{}, err)
		}
	}
	return m.stream(ctx, q, req)
}

func (m *Middleware) stream(ctx context.Context, q query.Node, req Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		req := req // each run of the iterator is admitted afresh
		grant, err := m.admit(ctx, &req)
		if err != nil {
			yield(core.Result{}, err)
			return
		}
		pag, err := m.preparePagination(ctx, q, req)
		if err != nil {
			grant.Settle(0)
			yield(core.Result{}, err)
			return
		}
		// LIFO deferral order: the settle closure runs before Release,
		// while the paginator's cumulative tallies are still readable.
		defer pag.Release()
		defer func() { grant.Settle(req.Model.Of(pag.Cost())) }()
		pageSize := m.clampK(req.K)
		for {
			page, err := pag.NextPage(pageSize)
			if err != nil {
				yield(core.Result{}, err)
				return
			}
			if len(page) == 0 {
				return
			}
			for _, r := range page {
				if !yield(r, nil) {
					return
				}
			}
		}
	}
}

// ResultsString is Stream over the request the options describe for q.
func (m *Middleware) ResultsString(ctx context.Context, q string, opts ...QueryOption) iter.Seq2[core.Result, error] {
	return m.streamText(ctx, newRequest(q, opts))
}

// preparePagination binds the paginator behind Results and Stream: plan
// (with any WithAlgorithm pin), validate paginability, and hand the
// plan's sources to core.NewPaginator.
func (m *Middleware) preparePagination(ctx context.Context, q query.Node, req Request) (*core.Paginator, error) {
	plan, err := m.plan(q, req)
	if err != nil {
		return nil, err
	}
	alg, err := paginableAlgorithm(plan, req.Algorithm != nil)
	if err != nil {
		return nil, err
	}
	lists, err := m.sources(plan.Atoms)
	if err != nil {
		return nil, err
	}
	return core.NewPaginator(ctx, alg, lists, plan.Agg, req.lower())
}

// paginableAlgorithm adapts a plan's algorithm for incremental widening.
// B₀ paginates correctly only for single lists: a planner-chosen B₀
// over a multi-list disjunction silently falls back to A₀ (same
// answers, graded-prefix semantics), while an explicit pin is refused
// loudly — the caller asked for a specific access pattern the paginator
// cannot honor.
func paginableAlgorithm(plan *Plan, pinned bool) (core.Algorithm, error) {
	if _, isB0 := plan.Algorithm.(core.B0); isB0 && len(plan.Atoms) > 1 {
		if pinned {
			return nil, fmt.Errorf("middleware: cannot paginate with B0 over %d lists; it is exact only for the first page", len(plan.Atoms))
		}
		return core.A0{}, nil
	}
	return plan.Algorithm, nil
}

// Filter evaluates the threshold query "overall grade ≥ theta" for a
// monotone q, in the Chaudhuri–Gravano style.
func (m *Middleware) Filter(ctx context.Context, q query.Node, theta float64, opts ...QueryOption) (*Report, error) {
	req := newRequest("", opts)
	q = query.Rewrite(q, query.RulesFor(m.sem))
	c, err := query.Compile(q, m.sem)
	if err != nil {
		return nil, err
	}
	if !c.Func.Monotone() {
		return nil, fmt.Errorf("middleware: filter requires a monotone query")
	}
	lists, err := m.sources(c.Atoms)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Atoms:  c.Atoms,
		Agg:    c.Func,
		Reason: fmt.Sprintf("filter condition: all objects with grade >= %g [CG96]", theta),
	}
	sr, err := core.Run(ctx, lists, req.lower(), func(ec *core.ExecContext, counted []*subsys.Counted) ([]core.Result, error) {
		return core.Filter(ec, counted, c.Func, theta)
	})
	return newReport(plan, sr, err)
}

// execute runs a plan under the request configuration. Errors mid-
// evaluation (cancellation, budget, a source failure) come back with a
// partial-cost report.
func (m *Middleware) execute(ctx context.Context, plan *Plan, req Request) (*Report, error) {
	lists, err := m.sources(plan.Atoms)
	if err != nil {
		return nil, err
	}
	sr, err := core.Run(ctx, lists, req.lower(), topK(plan.Algorithm, plan.Agg, m.clampK(req.K)))
	return newReport(plan, sr, err)
}

// topK is the body that runs alg at k over the slice's lists, the
// algorithm's own argument checks (k out of range) included.
func topK(alg core.Algorithm, t agg.Func, k int) func(*core.ExecContext, []*subsys.Counted) ([]core.Result, error) {
	return func(ec *core.ExecContext, lists []*subsys.Counted) ([]core.Result, error) {
		return alg.TopK(ec, lists, t, k)
	}
}

// newReport turns core's outcome into the request's report: the tallies
// (with the per-atom breakdown when the lists align with the plan's
// atoms), the prefetch stats, and the results only on success.
func newReport(plan *Plan, sr *core.ShardReport, err error) (*Report, error) {
	rep := &Report{Cost: sr.Cost, Prefetch: sr.Prefetch, Plan: plan}
	if len(sr.PerList) == len(plan.Atoms) {
		rep.PerList = sr.PerList
	}
	if err == nil {
		rep.Results = sr.Results
	}
	return rep, err
}

// sources evaluates each atom against its subsystem.
func (m *Middleware) sources(atoms []query.Atomic) ([]subsys.Source, error) {
	out := make([]subsys.Source, len(atoms))
	for i, a := range atoms {
		s, ok := m.subsystems[a.Attr]
		if !ok {
			return nil, &UnknownAttributeError{Attr: a.Attr}
		}
		src, err := s.Query(a.Target)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", a.Attr, err)
		}
		if src.Len() != m.n {
			return nil, &SizeMismatchError{Attr: a.Attr, Got: src.Len(), Want: m.n}
		}
		out[i] = src
	}
	return out, nil
}
