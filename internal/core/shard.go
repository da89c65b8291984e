package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// ShardConfig configures a sharded evaluation (see EvaluateSharded): the
// dense universe {0,…,N−1} is split into Shards contiguous ranges, the
// algorithm runs once per shard over re-ranked shard views of the
// sources, and the per-shard top answers are merged into the global
// top k under the package tie policy (descending grade, ascending id).
type ShardConfig struct {
	// Shards is the number of universe partitions. Values ≤ 1 evaluate
	// unsharded; values above N are clamped to N.
	Shards int
	// Parallel caps the number of shard workers running at once: 0 means
	// GOMAXPROCS, 1 runs the shards sequentially in index order — the
	// deterministic mode, where the threshold merge stops later shards
	// against the exact results of earlier ones and the per-shard cost
	// tallies are reproducible bit for bit. Each worker evaluates its
	// shard serially inside unless Prefetch is set. Unsharded there are no
	// shard workers to cap, and Parallel > 1 is instead the width of the
	// pipelined executor: the cap on source operations in flight.
	Parallel int
	// Budget bounds the weighted middleware cost of the whole evaluation
	// across all shards, through a shared reservation pool: every shard
	// reserves each step's worst-case price from the same pool before
	// issuing accesses, so the global spend never overshoots the limit
	// (the *BudgetError semantics of WithAccessBudget, globally).
	// Non-positive means unlimited.
	Budget float64
	// Model prices sorted and random accesses for budget accounting
	// (zero value means cost.Unweighted).
	Model cost.Model
	// Prefetch pipelines each shard's evaluation: instead of the serial
	// executor, every shard runs under its own Pipelined executor whose
	// background prefetch pipelines stream the shard's re-ranked views
	// (batched Entries spans into the per-list spool, uncounted —
	// pay-on-delivery holds under sharding, so the Section 5 tallies are
	// unchanged) and whose random-access gather overlaps across lists
	// and objects. The gather width and the per-list adaptive depth cap
	// are budgeted globally: the totals (PrefetchWidth, DefaultPrefetchCap
	// per list) are divided by the number of shard workers running at
	// once, so P shards × m lists never multiply the goroutine or buffer
	// count beyond the unsharded pipelined footprint. Shard fencing
	// drains that shard's pipelines (Counted.Fence closes them) without
	// touching the shared budget pool — prefetched-but-undelivered ranks
	// were never reserved or paid.
	Prefetch bool
	// PrefetchDepth pins the per-list prefetch batch depth (> 0) or
	// selects the adaptive policy (0: open at the depth the shard's
	// algorithm expects to reach — over the shard view's own length — or
	// at 1 when it states none, double on stall, shrink when the
	// algorithm falls behind). Meaningful only where the pipelined
	// executor runs. A pinned depth is part of the global budget too: like
	// the adaptive cap it is divided across the shards holding pipeline
	// buffers at once (floored at 1), so pinning a deep batch on a
	// many-shard evaluation cannot multiply the buffer footprint.
	PrefetchDepth int
	// PrefetchWidth is the total random-access gather budget shared by
	// the concurrently running shards (0 means the Pipelined default;
	// unsharded, Parallel above 1 caps it too); each shard worker gets an
	// equal slice, floored at 1.
	PrefetchWidth int
	// Plan selects how the universe is cut into shard ranges: the
	// zero value ShardPlanEven splits by object count (the historical
	// behavior, byte for byte), ShardPlanWeighted cuts at quantiles of
	// the predicted access work derived from Sketches. Weighted planning
	// degenerates to even when no usable sketch is supplied.
	Plan ShardPlanPolicy
	// Sketches are the per-list grade-distribution sketches the weighted
	// planner consumes, in source order; nil entries (and sketches over
	// the wrong universe) are tolerated — a list without a sketch is
	// assumed indifferent. Ignored under ShardPlanEven.
	Sketches []*subsys.Sketch
}

// pipelineExecutor builds the per-shard pipelined executor under the
// global resource budget: the total gather width is split across the
// widthShare shards whose gathers can be in flight at once (the worker
// cap), and the per-list readahead depth — the adaptive cap AND a
// pinned PrefetchDepth alike — across the depthShare shards whose
// pipelines hold buffers at once (the worker cap for one-shot
// evaluation, where a finished shard releases its pipelines before the
// next starts; the full shard count for the paginator, whose pipelines
// stay alive across pages on every shard simultaneously). Everything
// floors at 1, so the whole sharded evaluation never holds more probes
// in flight or more speculative ranks buffered than one unsharded
// pipelined evaluation would.
func (cfg ShardConfig) pipelineExecutor(widthShare, depthShare int) Executor {
	if widthShare < 1 {
		widthShare = 1
	}
	if depthShare < 1 {
		depthShare = 1
	}
	width := cfg.PrefetchWidth
	if width <= 0 {
		width = defaultGatherWidth
	}
	if width = width / widthShare; width < 1 {
		width = 1
	}
	maxDepth := subsys.DefaultPrefetchCap / depthShare
	if maxDepth < 1 {
		maxDepth = 1
	}
	depth := cfg.PrefetchDepth
	if depth > 0 {
		if depth = depth / depthShare; depth < 1 {
			depth = 1
		}
	}
	return Pipelined{P: width, Depth: depth, MaxDepth: maxDepth}
}

// evalOptions is the one place a ShardConfig becomes the options of an
// ExecContext, and so the one place an executor is chosen: the cost
// model, and the pipelined executor at this evaluation's share of the
// width and depth budgets (see pipelineExecutor) under Prefetch — or,
// when the evaluation is the whole request rather than one slice of it,
// under Parallel > 1, which is then that executor's width unless
// PrefetchWidth states a narrower one. Everything else is serial: a
// slice of a sharded run without Prefetch in particular, where Parallel
// counts shard workers. Budget is the evaluation's own limit for a whole
// request; a slice draws on the shared pool its caller installs.
func (cfg ShardConfig) evalOptions(widthShare, depthShare int, whole bool) []EvalOption {
	opts := make([]EvalOption, 1, 3)
	opts[0] = WithCostModel(cfg.Model)
	overlap := whole && cfg.Parallel > 1
	if cfg.Prefetch || overlap {
		if overlap && (cfg.PrefetchWidth <= 0 || cfg.PrefetchWidth > cfg.Parallel) {
			cfg.PrefetchWidth = cfg.Parallel
		}
		opts = append(opts, WithExecutor(cfg.pipelineExecutor(widthShare, depthShare)))
	}
	if whole && cfg.Budget > 0 {
		opts = append(opts, WithAccessBudget(cfg.Budget))
	}
	return opts
}

// ShardReport is the outcome of a sharded evaluation.
type ShardReport struct {
	// Results is the global top k in descending grade order (ties by
	// ascending object id). Nil when the evaluation stopped early.
	Results []Result
	// Cost is the total Section 5 access cost summed over shards.
	Cost cost.Cost
	// PerList breaks Cost down by source (atom), summed across shards.
	PerList []cost.Cost
	// PerShard breaks Cost down by shard.
	PerShard []cost.Cost
	// Shards is the number of shards actually planned (after clamping);
	// 1 means the evaluation degenerated to the unsharded path.
	Shards int
	// Prefetch aggregates the pipeline stats across every shard's lists
	// when the evaluation ran with cfg.Prefetch and the pipelines
	// engaged: MaxDepth is the deepest refill any shard used, Stalls and
	// Batches sum over shards and lists. Nil otherwise.
	Prefetch *subsys.PipelineStats
	// Details is the planning/measurement breakdown per planned shard:
	// the range the planner drew, its predicted work (weighted plan
	// only) and the model-weighted cost actually spent inside it. Nil on
	// the degenerate unsharded path.
	Details []ShardDetail
}

// ShardDetail is one planned shard's entry in ShardReport.Details.
type ShardDetail struct {
	// Range is the planned id range.
	Range subsys.ShardRange
	// Planned is the planner's predicted work for the range, in the
	// work proxy's unitless scale; zero under the even plan.
	Planned float64
	// Actual is the model-weighted access cost spent evaluating the
	// range.
	Actual float64
}

// EvaluateSharded finds the top k answers of F_t(srcs…) by partitioned
// evaluation: it plans cfg.Shards contiguous ranges of the universe,
// runs alg once per shard over re-ranked shard views (each under its
// own ExecContext — serial inside by default, or a per-shard Pipelined
// executor when cfg.Prefetch is set, with the gather width and pipeline
// depth budgeted globally across the shard workers — shards fanned out
// on up to cfg.Parallel workers), and merges the per-shard answers into
// the global top k.
//
// Equivalence contract (pinned by TestShardedVsUnsharded): the merged
// answers carry the same grade sequence as the unsharded evaluation of
// alg, and the very same objects in the same order everywhere above the
// k-th grade. Within a tie class AT the k-th grade both strategies
// return a correct maximal choice (Section 4) over their own candidate
// sets — the sharded pick is canonical (smallest ids) and deterministic,
// and coincides with the unsharded pick byte for byte whenever the k-th
// grade is untied.
//
// The merge is threshold-aware: finished shards publish their exact
// answers to a shared scoreboard, and a running shard whose threshold
// value — the aggregate t(g̲₁,…,g̲ₘ) of the last grades it has seen under
// sorted access, an upper bound on every object it has not yet seen for
// monotone t — falls strictly below the current global k-th grade is
// fenced: its sorted streams run dry and the algorithm completes over
// the objects already seen. Fencing never changes the merged answers
// (every unseen object of a fenced shard is strictly below the final
// k-th grade), it only saves accesses; on skewed data, shards that
// cannot contribute stop after a handful of rounds, so the sharded
// evaluation does less total access work than the unsharded one.
// Fencing engages for the algorithms whose completion phase computes
// exact grades for every seen object (A0, TA) under a monotone t; the
// others simply run each shard to its own natural stop.
//
// For cfg.Shards ≤ 1 the evaluation is Run: alg once over the raw
// sources (no shard view, so no re-ranking scan), cfg.Parallel and
// cfg.Budget in their executor-level meaning, reported as one shard.
//
// On cancellation or budget exhaustion every shard worker stops
// promptly (serial execution polls between accesses; a pipelined shard
// abandons even a wedged in-flight batch and closes its pipelines; the
// shared budget pool fails all further reservations once any shard
// trips it, and each tripped shard's reservation failure also closes
// that shard's prefetch pipelines), the workers are joined, and the
// report carries the partial cost with nil results and the first error
// in shard order.
func EvaluateSharded(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, k int, cfg ShardConfig) (*ShardReport, error) {
	if len(srcs) == 0 {
		return &ShardReport{Shards: 1}, ErrNoLists
	}
	n := srcs[0].Len()
	p := cfg.Shards
	if p > n {
		p = n
	}
	if p <= 1 {
		return Run(ctx, srcs, cfg, topK(alg, t, k))
	}
	// The per-shard runs see only their slice, so the global argument
	// contract must be enforced here, exactly as checkArgs states it.
	for i, s := range srcs {
		if s.Len() != n {
			return &ShardReport{Shards: 1}, fmt.Errorf("%w: list %d has %d objects, want %d", ErrArity, i, s.Len(), n)
		}
	}
	if k < 1 || k > n {
		return &ShardReport{Shards: 1}, fmt.Errorf("%w: k=%d, N=%d", ErrBadK, k, n)
	}

	plan := subsys.PlanShards(n, p)
	var planned []float64
	if cfg.Plan == ShardPlanWeighted {
		plan, planned = PlanShardsWeighted(n, p, cfg.Sketches, t)
	}
	var board *shardBoard
	if t.Monotone() && fenceSafe(alg) {
		board = &shardBoard{top: boundedTopK{k: k}}
	}
	var pool *budgetPool
	if cfg.Budget > 0 {
		pool = &budgetPool{limit: cfg.Budget}
	}

	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	// A finished shard releases its pipelines before its worker takes
	// the next one, so at most `workers` shards hold buffers at once.
	opts := cfg.evalOptions(workers, workers, false)

	// The fan-out the paginator uses too: workers claim planned shards in
	// index order. The calling goroutine is the first worker, so with one
	// worker the shards run inline, in order: the threshold scoreboard a
	// shard stops against is then a deterministic function of the data,
	// and so are the per-shard tallies.
	outs := make([]shardOut, len(plan))
	runIndexed(workers, len(plan), func(i int) {
		outs[i] = evalShard(ctx, alg, srcs, t, k, plan[i], opts, pool, board)
		if board != nil && outs[i].err == nil {
			board.publish(outs[i].res)
		}
	})

	rep := &ShardReport{
		PerList:  make([]cost.Cost, len(srcs)),
		PerShard: make([]cost.Cost, len(plan)),
		Details:  make([]ShardDetail, len(plan)),
		Shards:   len(plan),
	}
	model := cost.Unweighted
	if cfg.Model.Valid() {
		model = cfg.Model
	}
	var firstErr error
	total := 0
	for i, out := range outs {
		rep.Details[i] = ShardDetail{Range: plan[i], Actual: model.Of(out.total)}
		if planned != nil {
			rep.Details[i].Planned = planned[i]
		}
		rep.PerShard[i] = out.total
		rep.Cost = rep.Cost.Add(out.total)
		for j, c := range out.per {
			rep.PerList[j] = rep.PerList[j].Add(c)
		}
		if out.piped {
			if rep.Prefetch == nil {
				rep.Prefetch = &subsys.PipelineStats{}
			}
			*rep.Prefetch = rep.Prefetch.Add(out.pstats)
		}
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		total += len(out.res)
	}
	if firstErr != nil {
		return rep, firstErr
	}
	entries := make([]gradedset.Entry, 0, total)
	for _, out := range outs {
		for _, r := range out.res {
			entries = append(entries, gradedset.Entry{Object: r.Object, Grade: r.Grade})
		}
	}
	top := gradedset.TopK(entries, k)
	rep.Results = make([]Result, len(top))
	for i, e := range top {
		rep.Results[i] = Result{Object: e.Object, Grade: e.Grade}
	}
	return rep, nil
}

// shardOut is the outcome of one run of evalOne.
type shardOut struct {
	res    []Result // exact grades; global ids once evalShard has translated them
	per    []cost.Cost
	total  cost.Cost
	pstats subsys.PipelineStats // prefetch-pipeline stats summed over lists
	piped  bool                 // pipelines engaged; pstats is meaningful
	err    error
}

// topK is the body of a top-k evaluation: alg at k under the law t.
func topK(alg Algorithm, t agg.Func, k int) func(*ExecContext, []*subsys.Counted) ([]Result, error) {
	return func(ec *ExecContext, lists []*subsys.Counted) ([]Result, error) {
		return alg.TopK(ec, lists, t, k)
	}
}

// evalOne is the only place an algorithm meets a set of sources: it
// wraps them in counters, builds the ExecContext, lets setup wire it (a
// shard installs its budget pool and scoreboard stop-check there), runs body, and accounts for the run — whole evaluations and
// the slices of a sharded one alike.
func evalOne(ctx context.Context, srcs []subsys.Source, opts []EvalOption, setup func(*ExecContext), body func(*ExecContext, []*subsys.Counted) ([]Result, error)) shardOut {
	var out shardOut
	counted := subsys.CountAll(srcs)
	ec := NewExecContext(ctx, counted, opts...)
	if setup != nil {
		setup(ec)
	}
	out.res, out.err = body(ec, counted)
	if out.err == nil {
		// Final net for fallible sources: a failed list reads as
		// exhausted, so an algorithm that saw it merely as a dry stream
		// may return cleanly over truncated data. No path may hand such
		// results out (or publish or merge them) without the typed error.
		// The budget pool is still settled below, and the lists released:
		// the failure was orderly (no accesses in flight), unlike an
		// abandonment.
		out.err = ec.SourceFailure()
	}
	if out.err != nil {
		out.res = nil
	}
	if ec.pool != nil {
		ec.pool.finish(ec)
	}
	if ec.Abandoned() {
		// Canceled with accesses in flight: workers may still be touching
		// the lists, so report the tallies of the last quiescent point and
		// leave the state to the GC — the pooled memos must not be recycled
		// under them.
		out.total = ec.SafeCost()
		return out
	}
	out.total = subsys.TotalCost(counted)
	out.per = make([]cost.Cost, len(counted))
	for j, c := range counted {
		out.per[j] = c.Cost()
	}
	subsys.ReleaseAll(counted)
	for _, c := range counted {
		if s, ok := c.PrefetchStats(); ok {
			out.pstats = out.pstats.Add(s)
			out.piped = true
		}
	}
	return out
}

// Run evaluates body once over the raw sources under cfg — the cost
// model, the executor (pipelined with the whole width and depth budget
// under Prefetch or Parallel > 1, serial otherwise), and Budget as the
// evaluation's own limit — and reports it as one shard:
// the unsharded case of EvaluateSharded, and the route for bodies that
// are not a top-k at all (a threshold filter). On cancellation, budget
// exhaustion or a source failure the report carries the partial cost
// and nil results, with the error.
func Run(ctx context.Context, srcs []subsys.Source, cfg ShardConfig, body func(*ExecContext, []*subsys.Counted) ([]Result, error)) (*ShardReport, error) {
	out := evalOne(ctx, srcs, cfg.evalOptions(1, 1, true), nil, body)
	rep := &ShardReport{Results: out.res, Cost: out.total, PerList: out.per, PerShard: []cost.Cost{out.total}, Shards: 1}
	if out.piped {
		stats := out.pstats
		rep.Prefetch = &stats
	}
	return rep, out.err
}

// evalShard runs one shard of a partitioned evaluation: re-ranked views
// over the range, an ExecContext wired to the shared budget pool and the
// threshold scoreboard, the algorithm at k clamped to the shard size,
// and local→global id translation of the answers. An empty range
// evaluates to nothing at zero cost.
func evalShard(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, k int, r subsys.ShardRange, opts []EvalOption, pool *budgetPool, board *shardBoard) shardOut {
	if r.Len() == 0 {
		return shardOut{}
	}
	out := evalOne(ctx, subsys.ShardSources(srcs, r), opts, func(ec *ExecContext) {
		if pool != nil {
			ec.budget = pool.limit
			ec.pool = pool
		}
		if board != nil {
			ec.stop = board.stopFunc(t, len(srcs))
		}
	}, topK(alg, t, min(k, r.Len())))
	for j := range out.res {
		out.res[j].Object += r.Lo
	}
	return out
}

// fenceSafe reports whether the algorithm tolerates a threshold fence:
// its sorted loop treats fenced cursors as exhausted and its completion
// phase computes exact grades for every object seen so far. A0 completes
// every seen object by random access; TA scores eagerly on first sight.
// A0Prime is excluded (its candidate pruning
// needs the full k matches), FilterFirst is excluded (a truncated drive
// scan would drop perfect matches), B0 and the naive algorithms consume
// in one batch before any threshold exists, and OrderStat's inner runs
// use subset arity the threshold check cannot price.
func fenceSafe(alg Algorithm) bool {
	switch alg.(type) {
	case A0, TA:
		return true
	}
	return false
}

// shardBoard is the shared scoreboard of a sharded evaluation: finished
// shards publish their exact answers, and running shards poll the
// resulting global k-th grade as their fencing bound. The bound is
// monotone non-decreasing and always at most the final global k-th
// grade, which is what makes fencing on a stale read safe — a stale
// bound is merely conservative.
type shardBoard struct {
	mu   sync.Mutex
	top  boundedTopK
	full atomic.Bool
	bits atomic.Uint64 // Float64bits of the current k-th grade
}

// publish merges one shard's exact answers into the scoreboard.
func (b *shardBoard) publish(res []Result) {
	b.mu.Lock()
	for _, r := range res {
		b.top.offer(gradedset.Entry{Object: r.Object, Grade: r.Grade})
	}
	if b.top.full() {
		b.bits.Store(math.Float64bits(b.top.kth().Grade))
		b.full.Store(true)
	}
	b.mu.Unlock()
}

// bound returns the current global k-th grade, once k exact answers
// have been published.
func (b *shardBoard) bound() (float64, bool) {
	if !b.full.Load() {
		return 0, false
	}
	return math.Float64frombits(b.bits.Load()), true
}

// stopFunc builds the per-shard threshold stop-check: fence when the
// aggregate of the shard's last-seen sorted grades — an upper bound on
// every object the shard has not yet seen, for monotone t — falls
// strictly below the global k-th grade. Strictly: an unseen object tied
// with the k-th grade could still belong to the top k under the id
// tie-break, so equality must keep scanning.
func (b *shardBoard) stopFunc(t agg.Func, m int) func([]*subsys.Cursor) bool {
	buf := make([]float64, m)
	return func(cursors []*subsys.Cursor) bool {
		if len(cursors) != m {
			return false
		}
		bound, ok := b.bound()
		if !ok {
			return false
		}
		for i, cu := range cursors {
			buf[i] = cu.LastGrade()
		}
		return t.Apply(buf) < bound
	}
}

// budgetPool is the shared access-budget ledger of a sharded
// evaluation. Each shard synchronizes its own actual weighted spend
// into the pool and holds at most one outstanding worst-case
// reservation (steps within a shard are sequential, so reserving a new
// step settles the previous one). The invariant committed + outstanding
// ≤ limit holds at every grant, and every access is covered by a
// reservation, so the global spend can never overshoot the limit.
type budgetPool struct {
	mu          sync.Mutex
	limit       float64
	committed   float64 // synchronized actual spend across shards
	outstanding float64 // sum of in-flight worst-case reservations
	broke       bool    // a reservation failed; fail all further ones
}

// reserve settles ec's previous step (commit actual spend, release its
// reservation) and grants the next one, or fails with a *BudgetError.
// The failure's Spent is the synchronized actual spend (committed), per
// the BudgetError contract; a grant can be refused even when committed
// plus need is under the limit, because other shards' outstanding
// worst-case reservations also hold headroom — that pessimism is what
// makes the pool overshoot-proof.
func (p *budgetPool) reserve(ec *ExecContext, need float64) error {
	spent := ec.model.Of(subsys.TotalCost(ec.lists))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.committed += spent - ec.synced
	ec.synced = spent
	p.outstanding -= ec.outstanding
	ec.outstanding = 0
	if p.broke || p.committed+p.outstanding+need > p.limit {
		p.broke = true
		return &BudgetError{Limit: p.limit, Spent: p.committed, Need: need}
	}
	ec.outstanding = need
	p.outstanding += need
	return nil
}

// finish commits ec's final spend and releases its reservation; called
// once when the shard's evaluation returns.
func (p *budgetPool) finish(ec *ExecContext) {
	spent := ec.model.Of(subsys.TotalCost(ec.lists))
	p.mu.Lock()
	p.committed += spent - ec.synced
	ec.synced = spent
	p.outstanding -= ec.outstanding
	ec.outstanding = 0
	p.mu.Unlock()
}
