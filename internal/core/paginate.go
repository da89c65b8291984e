package core

import (
	"context"
	"fmt"

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
// cache — then returns only the new answers. It is the slice driver's
// whole-universe slice, opened up front and kept across pages, so its
// first page is Run's top k at the page size.
type Paginator struct {
	d        partition
	s        slice
	returned map[int]bool
	count    int
}

// NewPaginator prepares paginated evaluation of F_t(srcs…) with the
// given algorithm (A0, A0Prime, or TA — any monotone-query algorithm
// works) under cfg as Run reads it: the cost model, the executor, and
// cfg.Budget as one pool across every page. cfg.Shards is ignored. The
// context governs every page. A paginator under a pipelined executor
// must be Released.
func NewPaginator(ctx context.Context, alg Algorithm, srcs []subsys.Source, t agg.Func, cfg ShardConfig) (*Paginator, error) {
	d, err := newPartition(ctx, alg, srcs, t, cfg)
	if err != nil {
		return nil, err
	}
	return &Paginator{d: d, s: d.open(subsys.ShardRange{}), returned: make(map[int]bool)}, nil
}

// Cost returns the exact Section 5 access cost the pagination has
// incurred so far, across all pages.
func (p *Paginator) Cost() cost.Cost {
	return subsys.TotalCost(p.s.lists)
}

// Release returns the paginator's pooled list state to the pools and
// stops any background prefetch pipelines, except when the evaluation
// was abandoned with accesses in flight (its state is left to the GC).
// Without pipelines Release may be skipped at the price of memory held
// until the GC runs; with them it is mandatory — their workers otherwise
// park forever.
func (p *Paginator) Release() {
	p.s.close()
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
	p.d.run(&p.s, min(p.count+pageSize, p.d.n))
	if p.s.err != nil {
		return nil, p.s.err
	}
	var page []Result
	for _, res := range p.s.res {
		if p.returned[res.Object] {
			continue
		}
		p.returned[res.Object] = true
		page = append(page, res)
	}
	p.count += len(page)
	return page, nil
}
