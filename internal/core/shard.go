package core

import (
	"context"
	"errors"
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

// ShardConfig configures an evaluation run on the slice driver (Run,
// NewPaginator, EvaluateSharded): its cost model, its executor and its
// access budget, and for EvaluateSharded alone the shard count and the
// shard worker cap.
type ShardConfig struct {
	// Shards is the number of even universe partitions EvaluateSharded
	// cuts (subsys.PlanShards). Values ≤ 1 evaluate unsharded; values
	// above N are clamped to N. Run and NewPaginator ignore it: they
	// evaluate one slice. Its one remaining caller is the benchmark
	// ladder's core.sharded2_us rung; ROADMAP 4(a) deletes it with the
	// rung.
	Shards int
	// Parallel caps the number of shard workers EvaluateSharded runs at
	// once: 0 means GOMAXPROCS, 1 runs the shards sequentially in index
	// order — the deterministic mode, where the threshold merge stops
	// later shards against the exact results of earlier ones and the
	// per-shard cost tallies are reproducible bit for bit. Every shard
	// evaluates serially inside. Unsharded there are no shard workers,
	// and Parallel is ignored. ROADMAP 4(a) deletes it with Shards.
	Parallel int
	// Budget bounds the weighted middleware cost of the whole evaluation
	// — across all shards, or across all pages of a paginator — through
	// one reservation pool: every slice reserves each step's worst-case
	// price from it before issuing accesses, so the global spend never
	// overshoots the limit (the *BudgetError semantics of
	// WithAccessBudget, globally). Non-positive means unlimited.
	Budget float64
	// Model prices sorted and random accesses for budget accounting
	// (zero value means cost.Unweighted).
	Model cost.Model
	// Prefetch runs the evaluation under the Pipelined executor:
	// background prefetch pipelines stream the sorted lists (batched
	// Entries spans into the per-list spool, uncounted — pay on
	// delivery, so the Section 5 tallies are unchanged) and the
	// random-access gather overlaps across lists and objects. It does not
	// compose with Shards > 1: EvaluateSharded refuses the pair with
	// ErrShardedPrefetch.
	Prefetch bool
	// PrefetchCap caps the per-list adaptive readahead depth (0 means
	// subsys.DefaultPrefetchCap): the pipeline opens at the depth the
	// algorithm expects to reach, or at 1 when it states none, doubles on
	// stall and shrinks when the algorithm falls behind, never past the
	// cap. Meaningful only under Prefetch.
	PrefetchCap int
	// PrefetchWidth is the random-access gather width of the pipelined
	// executor (0 means the Pipelined default). Meaningful only under
	// Prefetch.
	PrefetchWidth int
}

// ErrShardedPrefetch reports a ShardConfig asking EvaluateSharded for
// Prefetch together with Shards > 1: shards evaluate serially inside,
// and a pipelined evaluation runs unsharded.
var ErrShardedPrefetch = errors.New("core: Prefetch does not compose with Shards > 1")

// evalOptions is the one place a ShardConfig becomes the options of an
// ExecContext, and so the one place an executor is chosen: the cost
// model, and under Prefetch the pipelined executor at the configured
// width and readahead cap. Budget is not an option here: every slice
// reserves from the pool its driver installs (see partition.open).
func (cfg ShardConfig) evalOptions() []EvalOption {
	opts := []EvalOption{WithCostModel(cfg.Model)}
	if cfg.Prefetch {
		width, depth := cfg.PrefetchWidth, cfg.PrefetchCap
		if width <= 0 {
			width = defaultGatherWidth
		}
		if depth <= 0 {
			depth = subsys.DefaultPrefetchCap
		}
		opts = append(opts, WithExecutor(Pipelined{P: width, MaxDepth: depth}))
	}
	return opts
}

// ShardReport is the outcome of an evaluation on the slice driver.
type ShardReport struct {
	// Results is the global top k in descending grade order (ties by
	// ascending object id). Nil when the evaluation stopped early.
	Results []Result
	// Cost is the total Section 5 access cost, summed over shards.
	Cost cost.Cost
	// PerList breaks Cost down by source (atom), summed across shards.
	PerList []cost.Cost
	// PerShard breaks Cost down by shard; nil unsharded. Read only by
	// tests; ROADMAP 4(a) deletes it with EvaluateSharded.
	PerShard []cost.Cost
	// Shards is the number of shards actually planned (after clamping);
	// 1 means the evaluation ran unsharded. ROADMAP 4(a) deletes it with
	// EvaluateSharded.
	Shards int
	// Prefetch carries the pipeline stats summed over the lists when the
	// evaluation ran with cfg.Prefetch and the pipelines engaged:
	// MaxDepth is the deepest refill any list used, Stalls and Batches
	// sum over lists. Nil otherwise.
	Prefetch *subsys.PipelineStats
}

// EvaluateSharded finds the top k answers of F_t(srcs…) by partitioned
// evaluation: it cuts the universe into cfg.Shards contiguous ranges of
// near-equal size (subsys.PlanShards), runs alg once per shard over
// re-ranked shard views — each serially, under its own ExecContext, on
// up to cfg.Parallel shard workers — and merges the per-shard answers
// into the global top k. Its one remaining caller outside tests is the
// benchmark ladder's core.sharded2_us rung: ROADMAP 4(a) deletes the
// rung, then moves this function into internal/sim as E17's private
// copy. The engine never shards.
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
// k-th grade), it only saves accesses. Fencing engages for the
// algorithms whose completion phase computes exact grades for every
// seen object (A0, TA) under a monotone t; the others simply run each
// shard to its own natural stop.
//
// For cfg.Shards ≤ 1 the evaluation is one slice over the raw sources
// (no shard view, so no re-ranking scan), on a budget pool of its own,
// reported as one shard. cfg.Prefetch with cfg.Shards > 1 is refused
// with ErrShardedPrefetch.
//
// On cancellation or budget exhaustion every shard worker stops
// promptly (serial execution polls between accesses; the shared budget
// pool fails all further reservations once any shard trips it), the
// workers are joined, and the report carries the partial cost with nil
// results and the first error in shard order.
func EvaluateSharded(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, k int, cfg ShardConfig) (*ShardReport, error) {
	d, err := newPartition(ctx, alg, srcs, t, cfg)
	if err == nil && (k < 1 || k > d.n) {
		err = fmt.Errorf("%w: k=%d, N=%d", ErrBadK, k, d.n)
	}
	p := min(cfg.Shards, d.n)
	if err == nil && p > 1 && cfg.Prefetch {
		err = fmt.Errorf("%w: Shards=%d", ErrShardedPrefetch, cfg.Shards)
	}
	if err != nil {
		return &ShardReport{Shards: 1}, err
	}
	if p <= 1 {
		one := [1]slice{d.whole(k)}
		return d.report(one[:], k)
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return d.report(d.sharded(subsys.PlanShards(d.n, p), workers, k), k)
}

// Run evaluates body once over the raw sources under cfg — the cost
// model, the executor (pipelined under Prefetch, serial otherwise), and
// Budget as the evaluation's own pool — and reports it as one shard: the
// driver's whole-universe slice, for the engine's top k as for a body
// that is not one (a threshold filter, or the random accesses that
// repair a cached answer). cfg.Shards is ignored. On cancellation,
// budget exhaustion or a source failure the report carries the partial
// cost and nil results, with the error.
func Run(ctx context.Context, srcs []subsys.Source, cfg ShardConfig, body func(*ExecContext, []*subsys.Counted) ([]Result, error)) (*ShardReport, error) {
	d, err := newPartition(ctx, runBody(body), srcs, nil, cfg)
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

// partition is the slice driver, the one implementation of sliced
// evaluation: Run, Evaluate and the Paginator evaluate its one
// whole-universe slice (the Paginator once per page at a widening r),
// EvaluateSharded one slice per even range. newPartition validates; open
// builds a slice — the raw sources for the whole universe, re-ranked
// shard views for a range — on the evaluation's budget pool; run
// evaluates it, applies the failed-list final net and settles the pool;
// merge combines the per-slice answers.
type partition struct {
	ctx  context.Context
	alg  Algorithm
	t    agg.Func
	srcs []subsys.Source
	n    int
	opts []EvalOption
	pool *budgetPool // shared by the slices; nil unbudgeted
}

// newPartition validates the sources (a shard sees only its own views)
// and lowers cfg onto the slices' options and budget pool.
func newPartition(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, cfg ShardConfig) (partition, error) {
	if len(srcs) == 0 {
		return partition{}, ErrNoLists
	}
	d := partition{ctx: ctx, alg: alg, t: t, srcs: srcs, n: srcs[0].Len(), opts: cfg.evalOptions()}
	for i, s := range srcs {
		if s.Len() != d.n {
			return partition{}, fmt.Errorf("%w: list %d has %d objects, want %d", ErrArity, i, s.Len(), d.n)
		}
	}
	if cfg.Budget > 0 {
		d.pool = &budgetPool{limit: cfg.Budget}
	}
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

// open builds the slice over range r: counted lists over the raw
// sources for the zero range (the whole universe) or over re-ranked
// views of r, and their ExecContext, drawing on the driver's budget
// pool.
func (d *partition) open(r subsys.ShardRange) slice {
	s := slice{r: r}
	srcs := d.srcs
	if r.Len() > 0 {
		srcs = subsys.ShardSources(srcs, r)
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
	if s.r.Len() > 0 {
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
	s := d.open(subsys.ShardRange{})
	d.run(&s, k)
	s.close()
	return s
}

// sharded runs one serial slice per planned range at k, each opened and
// closed inside its worker, on up to the given number of workers,
// fencing against the threshold scoreboard where the algorithm tolerates
// it. With one worker the shards run inline, in order: the scoreboard a
// shard stops against is then a deterministic function of the data, and
// so are the per-shard tallies. Its receiver is a copy, so that only a
// sharded evaluation puts the driver on the heap.
func (d partition) sharded(plan []subsys.ShardRange, workers, k int) []slice {
	var board *shardBoard
	if d.t.Monotone() && fenceSafe(d.alg) {
		board = &shardBoard{top: boundedTopK{k: k}}
	}
	slices := make([]slice, len(plan))
	runIndexed(workers, len(slices), func(i int) {
		s := d.open(plan[i])
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

// runIndexed runs f(0..n-1) on up to the given number of workers, the
// calling goroutine among them, and joins them all: EvaluateSharded's
// shard fan-out. Workers claim indices in order, so one worker (or one
// shard) is the caller alone, in index order — the deterministic-cost
// mode. Cancellation is honored inside f (every shard polls its own
// context), not here.
func runIndexed(workers, n int, f func(int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// report sums the closed slices' tallies into a ShardReport and, when
// every slice succeeded, merges their answers at k; otherwise it carries
// the first error in slice order and nil results.
func (d *partition) report(slices []slice, k int) (*ShardReport, error) {
	rep := &ShardReport{Shards: len(slices), PerList: slices[0].per}
	if len(slices) > 1 {
		rep.PerShard = make([]cost.Cost, len(slices))
		rep.PerList = make([]cost.Cost, len(d.srcs))
	}
	var err error
	for i := range slices {
		s := &slices[i]
		rep.Cost = rep.Cost.Add(s.total)
		if len(slices) > 1 {
			rep.PerShard[i] = s.total
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
