package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// Paginator implements the "nice feature" noted after Theorem 4.2: after
// finding the top k answers, the next k best can be found by continuing
// where the evaluation left off. Each page widens the underlying top-r
// computation (r = answers delivered so far plus the page size) over the
// same counted lists — sorted access resumes from the deepest prefix
// already paid for, and previously fetched grades are served from the
// cache — then returns only the new answers.
//
// A paginator is one or more universe slices, each with its own counted
// lists and ExecContext kept alive across pages. NewPaginator builds the
// single slice that is the whole universe over the caller's lists;
// NewShardedPaginator builds one slice of re-ranked shard views per
// planned range: each page widens every slice's top-r computation over
// its own lists — resuming from that slice's paid prefixes — and merges
// the per-slice answers into the global top r under the canonical tie
// order. The sharded pages match the unsharded ones exactly on tie-free
// data (and up to a correct maximal choice within a tie class at page
// boundaries otherwise), because per-shard top-r sets are prefixes of
// each shard's total order, so their merge is the global prefix. Unlike
// EvaluateSharded, pagination never fences a shard: a shard that looks
// hopeless for page one may own all of page three, so every shard stays
// resumable.
type Paginator struct {
	alg      Algorithm
	t        agg.Func
	n        int
	returned map[int]bool
	count    int
	shards   []pageShard
	workers  int
}

// pageShard is one universe slice of a paginator: its range, its counted
// lists (kept alive across pages, so deeper pages resume from paid
// prefixes), and its own ExecContext.
type pageShard struct {
	r     subsys.ShardRange
	ec    *ExecContext
	lists []*subsys.Counted
}

// NewPaginator prepares paginated evaluation of F_t(A₁,…,Aₘ) with the
// given algorithm (A0, A0Prime, or TA — any monotone-query algorithm
// works) under the given execution state. The ExecContext's
// cancellation, budget, and executor apply across all pages: a budget
// bounds the cumulative cost of the whole pagination.
func NewPaginator(ec *ExecContext, alg Algorithm, lists []*subsys.Counted, t agg.Func) *Paginator {
	if ec == nil {
		ec = Background()
	}
	n := lists[0].Len()
	return &Paginator{
		alg: alg, t: t, n: n,
		returned: make(map[int]bool),
		shards:   []pageShard{{r: subsys.ShardRange{Lo: 0, Hi: n}, ec: ec, lists: lists}},
		workers:  1,
	}
}

// NewShardedPaginator prepares paginated evaluation over cfg.Shards
// contiguous slices of the dense universe, in the manner of
// EvaluateSharded: re-ranked shard views, one serial ExecContext per
// shard, shards fanned out on up to cfg.Parallel workers per page
// (1 = sequential shards, the deterministic-cost mode), and cfg.Budget
// as one reservation pool shared by every shard across every page.
// cfg.Prefetch gives every shard its own pipelined executor (gather
// width and pipeline depth budgeted across the shard workers, as in
// EvaluateSharded); the per-shard pipelines live as long as the shard
// lists — across pages — so a prefetching paginator must be Released.
// cfg.Shards ≤ 1 (after clamping to N) is NewPaginator's single slice
// over the raw sources, with cfg.Parallel and cfg.Budget in their
// executor-level meaning (as in Run).
func NewShardedPaginator(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, cfg ShardConfig) (*Paginator, error) {
	if len(srcs) == 0 {
		return nil, ErrNoLists
	}
	n := srcs[0].Len()
	for i, s := range srcs {
		if s.Len() != n {
			return nil, fmt.Errorf("%w: list %d has %d objects, want %d", ErrArity, i, s.Len(), n)
		}
	}
	p := cfg.Shards
	if p > n {
		p = n
	}
	if p <= 1 {
		counted := subsys.CountAll(srcs)
		return NewPaginator(NewExecContext(ctx, counted, cfg.evalOptions(1, 1, true)...), alg, counted, t), nil
	}

	var pool *budgetPool
	if cfg.Budget > 0 {
		pool = &budgetPool{limit: cfg.Budget}
	}
	plan := subsys.PlanShards(n, p)
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	// The per-shard pipelines stay alive across pages (the lists do), on
	// EVERY shard at once — unlike one-shot sharded evaluation, which
	// releases each shard as its worker finishes it. The gather width
	// still splits by the worker cap (only that many shards probe at
	// once), but the readahead depth budget splits by the full shard
	// count, so a parked pagination never buffers more speculative ranks
	// than one unsharded pipelined paginator. Release stops every
	// pipeline.
	opts := cfg.evalOptions(workers, len(plan), false)
	shards := make([]pageShard, 0, len(plan))
	for _, r := range plan {
		if r.Len() == 0 {
			continue
		}
		counted := subsys.CountAll(subsys.ShardSources(srcs, r))
		ec := NewExecContext(ctx, counted, opts...)
		if pool != nil {
			ec.budget = pool.limit
			ec.pool = pool
		}
		shards = append(shards, pageShard{r: r, ec: ec, lists: counted})
	}
	return &Paginator{
		alg: alg, t: t, n: n,
		returned: make(map[int]bool),
		shards:   shards,
		workers:  workers,
	}, nil
}

// Delivered returns how many answers have been produced so far.
func (p *Paginator) Delivered() int { return p.count }

// Sharded reports whether the paginator evaluates over partitioned
// universe slices.
func (p *Paginator) Sharded() bool { return len(p.shards) > 1 }

// Cost returns the exact Section 5 access cost the pagination has
// incurred so far, across all pages (and, when sharded, all shards).
func (p *Paginator) Cost() cost.Cost {
	var total cost.Cost
	for i := range p.shards {
		total = total.Add(subsys.TotalCost(p.shards[i].lists))
	}
	return total
}

// Release returns the paginator's pooled list state (grade memos, dense
// caches) to the pools and stops any background prefetch pipelines the
// executor attached. Call it once pagination is over; it is skipped
// automatically when the evaluation was abandoned with accesses in
// flight (the state is poisoned and left to the GC). A paginator
// without prefetch pipelines may skip Release (the cost is memory held
// until the GC runs, as before); one evaluated under a pipelined
// executor must be Released — its per-list worker goroutines otherwise
// park forever.
func (p *Paginator) Release() {
	for i := range p.shards {
		// A parallel executor can abandon mid-gather on cancellation; that
		// slice's lists are then left to the GC (its workers exit on their
		// own once their in-flight source call returns).
		if p.shards[i].ec.Abandoned() {
			continue
		}
		subsys.ReleaseAll(p.shards[i].lists)
	}
}

// NextPage returns the next pageSize best answers, in descending grade
// order, excluding everything already delivered. Fewer than pageSize
// results are returned when the database runs out of objects.
func (p *Paginator) NextPage(pageSize int) ([]Result, error) {
	if pageSize < 1 {
		return nil, fmt.Errorf("%w: page size %d", ErrBadK, pageSize)
	}
	if p.count >= p.n {
		return nil, nil
	}
	r := p.count + pageSize
	if r > p.n {
		r = p.n
	}
	all, err := p.topR(r)
	if err != nil {
		return nil, err
	}
	var page []Result
	for _, res := range all {
		if p.returned[res.Object] {
			continue
		}
		p.returned[res.Object] = true
		page = append(page, res)
	}
	p.count += len(page)
	return page, nil
}

// topR widens the underlying evaluation to the top r answers.
func (p *Paginator) topR(r int) ([]Result, error) {
	outs := make([][]Result, len(p.shards))
	errs := make([]error, len(p.shards))
	runShard := func(i int) {
		s := &p.shards[i]
		outs[i], errs[i] = p.alg.TopK(s.ec, s.lists, p.t, min(r, s.r.Len()))
		if errs[i] == nil {
			// Final net for fallible sources, as in evalOne: no page may be
			// built over a truncated list.
			errs[i] = s.ec.SourceFailure()
		}
		if s.ec.pool != nil {
			s.ec.pool.finish(s.ec)
		}
	}
	runIndexed(p.workers, len(p.shards), runShard)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(p.shards) == 1 {
		// One slice is the whole universe in the caller's own ids: its
		// answer is the page source as it stands, with no re-merge.
		return outs[0], nil
	}
	// Merge: per-shard top-r sets are prefixes of each shard's total
	// order, so the canonical top-r of their union is the global top-r.
	var entries []gradedset.Entry
	for i := range p.shards {
		lo := p.shards[i].r.Lo
		for _, res := range outs[i] {
			entries = append(entries, gradedset.Entry{Object: res.Object + lo, Grade: res.Grade})
		}
	}
	return topKResults(entries, r), nil
}

// runIndexed runs f(0..n-1) on up to the given number of workers, the
// calling goroutine among them, and joins them all: the one sharded
// fan-out, per evaluation in EvaluateSharded and per page in the
// paginator. Workers claim indices in order, so one worker (or one
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
