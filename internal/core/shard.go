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
	// shard workers, and Parallel is ignored.
	Parallel int
	// Budget bounds the weighted middleware cost of the whole evaluation
	// across all shards, through one reservation pool: every shard
	// reserves each step's worst-case price from it before issuing
	// accesses, so the global spend never overshoots the limit (the
	// *BudgetError semantics of WithAccessBudget, globally).
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
	// are budgeted globally: the totals (PrefetchWidth, PrefetchCap per
	// list) are divided by the number of shard workers running at once,
	// so P shards × m lists never multiply the goroutine or buffer count
	// beyond the unsharded pipelined footprint. Shard fencing
	// drains that shard's pipelines (Counted.Fence closes them) without
	// touching the shared budget pool — prefetched-but-undelivered ranks
	// were never reserved or paid.
	Prefetch bool
	// PrefetchCap caps the per-list adaptive readahead depth (0 means
	// subsys.DefaultPrefetchCap): the pipeline opens at the depth the
	// shard's algorithm expects to reach — over the shard view's own
	// length — or at 1 when it states none, doubles on stall and shrinks
	// when the algorithm falls behind, never past the cap. Meaningful only
	// where the pipelined executor runs.
	PrefetchCap int
	// PrefetchWidth is the total random-access gather budget shared by
	// the concurrently running shards (0 means the Pipelined default);
	// each shard worker gets an equal slice, floored at 1.
	PrefetchWidth int
	// Sketches are the per-list grade-distribution sketches the shard
	// planner cuts by, in source order: the ranges equalize the predicted
	// access work PlanShardsWeighted derives from them. Nil entries (and
	// sketches over the wrong universe) are tolerated — a list without a
	// sketch is assumed indifferent — and with no usable sketch at all the
	// cut is subsys.PlanShards' even one, byte for byte.
	Sketches []*subsys.Sketch
}

// evalOptions is the one place a ShardConfig becomes the options of an
// ExecContext, and so the one place an executor is chosen: the cost
// model, and under Prefetch the pipelined executor at this evaluation's
// share of the global resource budget. The total gather width is split
// across the widthShare shards whose gathers can be in flight at once
// (the worker cap), and the per-list readahead cap across the depthShare
// shards whose pipelines hold buffers at once (the worker cap for
// one-shot evaluation, where a finished shard releases its pipelines
// before the next starts; the full shard count for the paginator, whose
// pipelines stay alive across pages on every shard simultaneously).
// Both floor at 1, so the whole sharded evaluation never holds more
// probes in flight or more speculative ranks buffered than one unsharded
// pipelined evaluation would. Without Prefetch every slice is serial.
// Budget is not an option here: every slice reserves from the pool its
// driver installs (see partition.open).
func (cfg ShardConfig) evalOptions(widthShare, depthShare int) []EvalOption {
	opts := []EvalOption{WithCostModel(cfg.Model)}
	if cfg.Prefetch {
		width, depth := cfg.PrefetchWidth, cfg.PrefetchCap
		if width <= 0 {
			width = defaultGatherWidth
		}
		if depth <= 0 {
			depth = subsys.DefaultPrefetchCap
		}
		opts = append(opts, WithExecutor(Pipelined{P: max(1, width/widthShare), MaxDepth: max(1, depth/depthShare)}))
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
	// the range the planner drew, its predicted work and the
	// model-weighted cost actually spent inside it. Nil on the degenerate
	// unsharded path.
	Details []ShardDetail
}

// ShardDetail is one planned shard's entry in ShardReport.Details.
type ShardDetail struct {
	// Range is the planned id range.
	Range subsys.ShardRange
	// Planned is the planner's predicted work for the range, in the
	// work proxy's unitless scale; zero when no usable sketch cut the
	// universe (the even ranges).
	Planned float64
	// Actual is the model-weighted access cost spent evaluating the
	// range.
	Actual float64
}

// EvaluateSharded finds the top k answers of F_t(srcs…) by partitioned
// evaluation: it plans cfg.Shards contiguous ranges of the universe,
// runs alg once per shard over re-ranked shard views (each under its
// own ExecContext — serial inside by default, or a per-shard Pipelined
// executor when cfg.Prefetch is set, with the gather width and readahead
// cap budgeted globally across the shard workers — shards fanned out
// on up to cfg.Parallel workers), and merges the per-shard answers into
// the global top k. It is the first page of the Paginator's evaluation,
// on the same slice driver, plus fencing.
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
// For cfg.Shards ≤ 1 the evaluation is one slice over the raw sources
// (no shard view, so no re-ranking scan), on a budget pool of its own,
// reported as one shard.
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
	d, err := newPartition(ctx, alg, srcs, t, cfg, false)
	if err == nil && (k < 1 || k > d.n) {
		err = fmt.Errorf("%w: k=%d, N=%d", ErrBadK, k, d.n)
	}
	if err != nil {
		return &ShardReport{Shards: 1}, err
	}
	if d.plan == nil {
		one := [1]slice{d.whole(k)}
		return d.report(one[:], k)
	}
	return d.report(d.oneShot(k), k)
}

// Run evaluates body once over the raw sources under cfg — the cost
// model, the executor (pipelined with the whole width and readahead cap
// under Prefetch, serial otherwise), and Budget as the evaluation's own
// pool — and reports it as one shard: the driver's
// whole-universe slice, for a body that is not a top k (a threshold
// filter, or the random accesses that repair a cached answer).
// cfg.Shards is ignored. On cancellation, budget exhaustion or
// a source failure the report carries the partial cost and nil results,
// with the error.
func Run(ctx context.Context, srcs []subsys.Source, cfg ShardConfig, body func(*ExecContext, []*subsys.Counted) ([]Result, error)) (*ShardReport, error) {
	cfg.Shards = 0
	d, err := newPartition(ctx, runBody(body), srcs, nil, cfg, false)
	if err != nil {
		return &ShardReport{Shards: 1}, err
	}
	one := [1]slice{d.whole(d.n)}
	return d.report(one[:], d.n)
}

// runBody puts Run's body in the driver's algorithm slot. It is not a
// top k, so it ignores the law and k.
type runBody func(*ExecContext, []*subsys.Counted) ([]Result, error)

func (runBody) Name() string { return "body" }

func (b runBody) TopK(ec *ExecContext, lists []*subsys.Counted, _ agg.Func, _ int) ([]Result, error) {
	return b(ec, lists)
}

// partition is the slice driver, the one implementation of partitioned
// evaluation: EvaluateSharded runs it once at k, the Paginator once per
// page at a widening r, and Run and Evaluate are its one whole-universe
// slice. newPartition validates, clamps P and plans; open builds a slice
// — the raw sources when P ≤ 1, re-ranked shard views otherwise — on the
// evaluation's budget pool; run evaluates it, applies the failed-list final
// net and settles the pool; merge combines the per-slice answers. Its
// callers differ in two things only: a one-shot evaluation fences
// against a threshold scoreboard and opens and closes each slice inside
// its worker (oneShot); a paginator never fences — a shard hopeless for
// page one may own page three — and keeps every slice open across pages.
type partition struct {
	ctx     context.Context
	alg     Algorithm
	t       agg.Func
	srcs    []subsys.Source
	n       int
	plan    []subsys.ShardRange // nil: one slice, the whole universe
	planned []float64           // predicted work per range; nil for the even cut
	opts    []EvalOption
	pool    *budgetPool // shared by the slices; nil unbudgeted
	workers int
}

// newPartition validates the sources (a shard sees only its own views),
// clamps cfg.Shards to the universe and plans the ranges. kept says the
// slices stay open across pages, each holding its pipeline buffers, so
// the readahead cap splits by the shard count, not the workers.
func newPartition(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, cfg ShardConfig, kept bool) (partition, error) {
	if len(srcs) == 0 {
		return partition{}, ErrNoLists
	}
	d := partition{ctx: ctx, alg: alg, t: t, srcs: srcs, n: srcs[0].Len(), workers: 1}
	for i, s := range srcs {
		if s.Len() != d.n {
			return partition{}, fmt.Errorf("%w: list %d has %d objects, want %d", ErrArity, i, s.Len(), d.n)
		}
	}
	if cfg.Budget > 0 {
		d.pool = &budgetPool{limit: cfg.Budget}
	}
	p := min(cfg.Shards, d.n)
	if p <= 1 {
		d.opts = cfg.evalOptions(1, 1)
		return d, nil
	}
	d.plan, d.planned = PlanShardsWeighted(d.n, p, cfg.Sketches, t)
	if d.workers = cfg.Parallel; d.workers <= 0 {
		d.workers = runtime.GOMAXPROCS(0)
	}
	d.workers = min(d.workers, p)
	depthShare := d.workers
	if kept {
		depthShare = p
	}
	d.opts = cfg.evalOptions(d.workers, depthShare)
	return d, nil
}

// slice is one universe slice: its range (the zero range for the whole
// universe, in the caller's own ids), its counted lists and ExecContext,
// the answers and error of its last run, and — once closed — its
// tallies.
type slice struct {
	r      subsys.ShardRange
	ec     *ExecContext
	lists  []*subsys.Counted
	res    []Result // exact grades, global ids
	err    error
	total  cost.Cost
	per    []cost.Cost
	pstats subsys.PipelineStats // prefetch-pipeline stats summed over lists
	piped  bool                 // pipelines engaged; pstats is meaningful
}

// open builds slice i: counted lists over the raw sources (unsharded) or
// over re-ranked views of the planned range, and their ExecContext,
// drawing on the driver's budget pool.
func (d *partition) open(i int) slice {
	var s slice
	srcs := d.srcs
	if d.plan != nil {
		s.r = d.plan[i]
		srcs = subsys.ShardSources(srcs, s.r)
	}
	s.lists = subsys.CountAll(srcs)
	s.ec = NewExecContext(d.ctx, s.lists, d.opts...)
	if d.pool != nil {
		s.ec.pool = d.pool
	}
	return s
}

// run evaluates the slice at k (clamped to a shard's size), then applies
// the final net for fallible sources: a failed list reads as exhausted,
// so an algorithm that saw it merely as a dry stream may return cleanly
// over truncated data, and no caller may hand such results out (or
// publish or merge them) without the typed error. The budget pool is
// settled either way — the failure was orderly, with no accesses in
// flight. Answers come back in global ids.
func (d *partition) run(s *slice, k int) {
	if d.plan != nil {
		k = min(k, s.r.Len())
	}
	s.res, s.err = d.alg.TopK(s.ec, s.lists, d.t, k)
	if s.err == nil {
		s.err = s.ec.SourceFailure()
	}
	if s.ec.pool != nil {
		s.ec.pool.finish(s.ec)
	}
	if s.err != nil {
		s.res = nil
	}
	for j := range s.res {
		s.res[j].Object += s.r.Lo
	}
}

// close tallies the slice and releases its lists. An evaluation
// abandoned with accesses in flight keeps the tallies of its last
// quiescent point and leaves its state to the GC: workers may still be
// touching the lists, so the pooled memos must not be recycled under
// them.
func (s *slice) close() {
	if s.ec.Abandoned() {
		s.total = s.ec.SafeCost()
		return
	}
	s.total = subsys.TotalCost(s.lists)
	s.per = make([]cost.Cost, len(s.lists))
	for j, c := range s.lists {
		s.per[j] = c.Cost()
	}
	subsys.ReleaseAll(s.lists)
	for _, c := range s.lists {
		if st, ok := c.PrefetchStats(); ok {
			s.pstats = s.pstats.Add(st)
			s.piped = true
		}
	}
}

// whole runs the one slice that is the whole universe at k, and closes
// it.
func (d *partition) whole(k int) slice {
	s := d.open(0)
	d.run(&s, k)
	s.close()
	return s
}

// oneShot runs every shard at k on the indexed fan-out, each opened and
// closed inside its worker, fencing against the threshold scoreboard
// where the algorithm tolerates it. With one worker the shards run
// inline, in order: the scoreboard a shard stops against is then a
// deterministic function of the data, and so are the per-shard tallies.
// Its receiver is a copy, so that only a sharded evaluation puts the
// driver on the heap.
func (d partition) oneShot(k int) []slice {
	var board *shardBoard
	if d.t.Monotone() && fenceSafe(d.alg) {
		board = &shardBoard{top: boundedTopK{k: k}}
	}
	slices := make([]slice, len(d.plan))
	runIndexed(d.workers, len(slices), func(i int) {
		s := d.open(i)
		if board != nil {
			s.ec.stop = board.stopFunc(d.t, len(d.srcs))
		}
		d.run(&s, k)
		s.close()
		if board != nil && s.err == nil {
			board.publish(s.res)
		}
		slices[i] = s
	})
	return slices
}

// report sums the closed slices' tallies into a ShardReport and, when
// every slice succeeded, merges their answers at k; otherwise it carries
// the first error in slice order and nil results.
func (d *partition) report(slices []slice, k int) (*ShardReport, error) {
	rep := &ShardReport{PerShard: make([]cost.Cost, len(slices)), Shards: len(slices)}
	if d.plan == nil {
		rep.PerList = slices[0].per
	} else {
		rep.PerList = make([]cost.Cost, len(d.srcs))
		rep.Details = make([]ShardDetail, len(slices))
	}
	var err error
	for i := range slices {
		s := &slices[i]
		rep.PerShard[i] = s.total
		rep.Cost = rep.Cost.Add(s.total)
		if rep.Details != nil {
			rep.Details[i] = ShardDetail{Range: s.r, Actual: s.ec.model.Of(s.total)}
			if d.planned != nil {
				rep.Details[i].Planned = d.planned[i]
			}
			for j, c := range s.per {
				rep.PerList[j] = rep.PerList[j].Add(c)
			}
		}
		if s.piped {
			if rep.Prefetch == nil {
				rep.Prefetch = &subsys.PipelineStats{}
			}
			*rep.Prefetch = rep.Prefetch.Add(s.pstats)
		}
		if err == nil {
			err = s.err
		}
	}
	if err == nil {
		rep.Results = merge(slices, k)
	}
	return rep, err
}

// merge is the one place per-slice answers meet: the canonical top k of
// their union. Each slice's answer is a prefix of that slice's total
// order, so the merge is the global prefix. The whole universe's one
// slice is its own answer, as it stands.
func merge(slices []slice, k int) []Result {
	if len(slices) == 1 {
		return slices[0].res
	}
	var entries []gradedset.Entry
	for i := range slices {
		for _, r := range slices[i].res {
			entries = append(entries, gradedset.Entry{Object: r.Object, Grade: r.Grade})
		}
	}
	return topKResults(entries, k)
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

// budgetPool is the access-budget ledger of a budgeted evaluation: the
// one pool its slices share, or an evaluation's own pool of one. Each
// ExecContext synchronizes its own actual weighted spend into the pool
// and holds at most one outstanding worst-case reservation (steps within
// a slice are sequential, so reserving a new step settles the previous
// one). The invariant committed + outstanding
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
// once when the slice's evaluation returns.
func (p *budgetPool) finish(ec *ExecContext) {
	spent := ec.model.Of(subsys.TotalCost(ec.lists))
	p.mu.Lock()
	p.committed += spent - ec.synced
	ec.synced = spent
	p.outstanding -= ec.outstanding
	ec.outstanding = 0
	p.mu.Unlock()
}
