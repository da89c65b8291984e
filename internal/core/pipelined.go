package core

import (
	"context"

	"fuzzydb/internal/subsys"
)

const (
	// defaultGatherWidth is the number of gather chunks (see
	// Pipelined.Gather: batched calls, or single probes of a source that
	// does not batch) Pipelined keeps in flight at once when P is unset:
	// wide enough that a per-millisecond backend serves thousands of
	// probes per second, narrow enough not to stampede a real service.
	defaultGatherWidth = 64
	// pipelinedGatherCutoff is the probe count below which
	// Pipelined.Gather probes sources that do not batch inline. It is
	// deliberately tiny: the executor exists for sources where a single
	// access costs more than a goroutine handoff.
	pipelinedGatherCutoff = 16
)

// Pipelined configures the latency-hiding executor for slow or batched
// sources: middleware whose subsystems are remote services where the
// dominant cost of an access is the round trip, not the compute. An
// ExecContext holding one (WithExecutor) overlaps its accesses; one
// without runs them serially.
//
// Sorted access runs through a background prefetch pipeline per list
// (subsys.Counted.StartPrefetch): a worker goroutine issues batched
// Entries calls ahead of the algorithm's demand with adaptive depth, the
// pipeline's one policy, which MaxDepth only caps. An algorithm that
// knows how deep it will read says so first (the A₀ family,
// ExecContext.expectDepth) and the window opens there; a demand stated
// up front (B₀'s k ranks) is covered by one call; otherwise the depth
// starts at 1. From there it doubles every time the algorithm
// stalls on the pipeline and shrinks when the algorithm falls behind,
// capped at MaxDepth — so an A₀ query usually reads a remote list in one
// round trip, and the per-call latency is amortized over larger spans
// exactly when the source is slow enough to warrant it (the pipeline
// type in subsys states the whole policy). stage registers every needy
// cursor's demand before blocking on any of them, so the m refills of a
// round proceed concurrently across lists.
//
// The random-access gather phase overlaps across both lists AND objects:
// the executor resolves memoized grades first, cuts each list's missing
// probes into chunks of the source's batch size (one round trip per
// list over a subsys.BatchGrader, one probe per chunk otherwise), fans
// the chunks out on up to P workers against the raw sources, and then
// delivers the fetched grades in exactly the serial probe order.
// Payment stays strictly on delivery in both phases, so the Section 5
// tallies are bit-identical to the serial evaluation's (the equivalence
// tests pin this), and budgets compose: reservations happen before
// delivery, and a failed reservation closes every pipeline — the
// evaluation never prefetches past a reservation failure.
//
// Sources must tolerate concurrent reads (pipeline refills overlap the
// gather probes, and gather probes each other): every built-in source
// and wrapper does.
//
// On cancellation mid-wait the executor closes the pipelines (workers
// stop after their in-flight batch, which is never waited out) and
// returns an *AbandonedError promptly, even with a wedged batch in
// flight.
type Pipelined struct {
	// P caps the number of gather chunks in flight during the gather
	// phase; 0 means defaultGatherWidth. Useful values exceed the CPU
	// count: the workers overlap waiting.
	P int
	// MaxDepth caps the adaptive readahead depth per list (the largest
	// batch a pipeline issues); 0 means subsys.DefaultPrefetchCap.
	MaxDepth int
}

func (p *Pipelined) width() int {
	if p.P > 0 {
		return p.P
	}
	return defaultGatherWidth
}

// stage starts (lazily) a prefetch pipeline on every
// staged list, registers each needy cursor's demand so all refills are
// in flight at once, then waits until each cursor can deliver its next
// `ahead` entries without touching its source. On cancellation it closes
// the pipelines and returns an *AbandonedError without waiting for
// wedged batches.
func (p *Pipelined) stage(ctx context.Context, cursors []*subsys.Cursor, ahead int) error {
	if ahead < 1 {
		ahead = 1
	}
	var needy []*subsys.Cursor
	for _, cu := range cursors {
		if cu.Buffered() >= ahead || cu.Exhausted() {
			continue
		}
		cu.StartPrefetch(p.MaxDepth)
		cu.DemandAhead(ahead)
		needy = append(needy, cu)
	}
	if len(needy) == 0 {
		return nil
	}
	done := ctx.Done()
	for _, cu := range needy {
		if cu.AwaitAhead(ahead, done) {
			continue
		}
		if ctx.Err() != nil {
			for _, cu2 := range cursors {
				cu2.AbortPrefetch()
			}
			return &AbandonedError{Cause: context.Cause(ctx)}
		}
		// The pipeline closed without delivering: either a benign reason
		// (fence, budget stop) — consumption will see the fence or pay a
		// direct read — or a terminal source failure, which stays
		// invisible until the algorithm actually demands the missing
		// rank (staging is readahead; see subsys.Counted.bufferAhead)
		// and is then recorded as the list's sticky error. Either way
		// the remaining cursors still get their awaits (their pipelines
		// are already in flight) and the round loop decides what next.
	}
	return nil
}

// gather fills cols[j][i] = lists[j].Grade(objs[i]),
// overlapped across every (list, object) pair. Memoized grades are
// resolved inline first; each list's run of genuinely missing probes is
// cut into chunks of that list's batch size (subsys.Counted.GradeBatch:
// one round trip per chunk over a batching source, one probe per chunk
// otherwise), the chunks fan out on up to width() workers against the
// raw sources — uncounted — and the grades are then delivered in the
// exact serial order (list-major, ascending object index), so per-list
// tallies and memo state match gatherInline's bit for bit.
func (p *Pipelined) gather(ctx context.Context, lists []*subsys.Counted, objs []int, cols [][]float64) error {
	// A chunk is the run [lo, hi) of the miss arrays below, all of list j;
	// its worker leaves the count of grades obtained in n and the source
	// failure that stopped it, if any, in err.
	type chunk struct {
		j, lo, hi, n int
		err          error
	}
	var (
		at, ids []int // per miss, list-major: index into objs, object id
		chunks  []chunk
		batched bool
	)
	for j, l := range lists {
		col, first := cols[j], len(at)
		for i, obj := range objs {
			if g, ok := l.Known(obj); ok {
				col[i] = g
			} else {
				at, ids = append(at, i), append(ids, obj)
			}
		}
		size := l.GradeBatch()
		batched = batched || size > 1
		for lo := first; lo < len(at); lo += size {
			chunks = append(chunks, chunk{j: j, lo: lo, hi: min(lo+size, len(at))})
		}
	}
	if len(at) == 0 {
		return nil
	}
	if len(at) < pipelinedGatherCutoff && !batched {
		// Too few single probes to pay a goroutine handoff for: fill the
		// columns inline, in the same order.
		return gatherInline(ctx, lists, objs, cols)
	}
	fetched := make([]float64, len(at))
	err := fanOut(ctx, p.width(), len(chunks), func(ctx context.Context, t int) bool {
		if ctx.Done() != nil && t%ctxCheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		// Raw, unmetered read: payment happens at delivery below. A source
		// failure is recorded per chunk, NOT by bailing the fan-out —
		// bailing would fabricate an abandonment (poisoned lists, GC'd
		// state) out of an orderly, typed failure.
		c := &chunks[t]
		c.n, c.err = lists[c.j].TrySourceGrades(ids[c.lo:c.hi], fetched[c.lo:c.hi])
		// Except under a canceled context: then the failure is the
		// cancellation reaching the transport, and bailing reports the
		// abandonment whichever way the race with fanOut's own watch of
		// ctx goes.
		return c.err == nil || ctx.Err() == nil
	})
	if err != nil {
		for _, l := range lists {
			l.AbortPrefetch()
		}
		return err
	}
	// Delivery in serial probe order: each miss pays one random access
	// (objs are distinct within a phase, so the miss set was fixed at
	// phase start — exactly the accesses gatherInline would have paid).
	for _, c := range chunks {
		l, col := lists[c.j], cols[c.j]
		for t := c.lo; t < c.lo+c.n; t++ {
			col[at[t]] = l.DeliverGrade(ids[t], fetched[t])
		}
		if c.err != nil {
			// First failed probe in serial order: record it as the list's
			// sticky error and stop delivering — the ExecContext's
			// post-gather check surfaces the typed error, and no grade
			// past the failure point is paid for.
			l.FailGrade(ids[c.lo+c.n], c.err)
			for _, l := range lists {
				l.AbortPrefetch()
			}
			return nil
		}
	}
	return nil
}
