package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/subsys"
)

// Paginator implements the "nice feature" noted after Theorem 4.2: after
// finding the top k answers, the next k best can be found by continuing
// where the evaluation left off. Each page widens the underlying top-r
// computation (r = answers delivered so far plus the page size) over the
// same counted lists — sorted access resumes from the deepest prefix
// already paid for, and previously fetched grades are served from the
// cache — then returns only the new answers. Its first page is
// EvaluateSharded's answer at the page size, on the same slice driver.
//
// A paginator is one or more universe slices, opened up front and kept
// across pages, each with its own counted lists and ExecContext: one
// slice over the raw sources when unsharded, one of re-ranked shard
// views per planned range otherwise. Each page widens every slice's
// top-r computation over its own lists — resuming from that slice's paid
// prefixes — and merges the per-slice answers into the global top r
// under the canonical tie order. The sharded pages match the unsharded
// ones exactly on tie-free data (and up to a correct maximal choice
// within a tie class at page boundaries otherwise), because per-shard
// top-r sets are prefixes of each shard's total order, so their merge is
// the global prefix. Unlike EvaluateSharded, pagination never fences a
// shard: a shard that looks hopeless for page one may own all of page
// three, so every shard stays resumable.
type Paginator struct {
	d        partition
	slices   []slice
	returned map[int]bool
	count    int
}

// NewPaginator prepares paginated evaluation of F_t(srcs…) with the
// given algorithm (A0, A0Prime, or TA — any monotone-query algorithm
// works) under cfg as EvaluateSharded reads it — the plan, cfg.Parallel
// shard workers per page, cfg.Budget as one pool across every shard and
// every page — except that the per-shard pipelines live across pages, so
// the readahead cap splits across all the shards. The context
// governs every page. A paginator under a pipelined executor must be
// Released.
func NewPaginator(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, cfg ShardConfig) (*Paginator, error) {
	d, err := newPartition(ctx, alg, srcs, t, cfg, true)
	if err != nil {
		return nil, err
	}
	p := &Paginator{d: d, slices: make([]slice, max(1, len(d.plan))), returned: make(map[int]bool)}
	for i := range p.slices {
		p.slices[i] = d.open(i)
	}
	return p, nil
}

// Cost returns the exact Section 5 access cost the pagination has
// incurred so far, across all pages (and, when sharded, all shards).
func (p *Paginator) Cost() cost.Cost {
	var total cost.Cost
	for i := range p.slices {
		total = total.Add(subsys.TotalCost(p.slices[i].lists))
	}
	return total
}

// Release returns the paginator's pooled list state to the pools and
// stops any background prefetch pipelines, except on a slice abandoned
// with accesses in flight (its state is left to the GC). Without
// pipelines Release may be skipped at the price of memory held until the
// GC runs; with them it is mandatory — their workers otherwise park
// forever.
func (p *Paginator) Release() {
	for i := range p.slices {
		p.slices[i].close()
	}
}

// NextPage returns the next pageSize best answers, in descending grade
// order, excluding everything already delivered. Fewer than pageSize
// results are returned when the database runs out of objects.
func (p *Paginator) NextPage(pageSize int) ([]Result, error) {
	if pageSize < 1 {
		return nil, fmt.Errorf("%w: page size %d", ErrBadK, pageSize)
	}
	if p.count >= p.d.n {
		return nil, nil
	}
	all, err := p.topR(min(p.count+pageSize, p.d.n))
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

// topR widens every slice's evaluation to its top r and merges them.
func (p *Paginator) topR(r int) ([]Result, error) {
	runIndexed(p.d.workers, len(p.slices), func(i int) { p.d.run(&p.slices[i], r) })
	for i := range p.slices {
		if err := p.slices[i].err; err != nil {
			return nil, err
		}
	}
	return merge(p.slices, r), nil
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
