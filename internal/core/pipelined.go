package core

import (
	"context"

	"fuzzydb/internal/subsys"
)

const (
	// defaultGatherWidth is the number of gather chunks (see
	// Pipelined.gather: batched calls, or single probes of a source that
	// does not batch) Pipelined keeps in flight at once when P is unset:
	// wide enough that a per-millisecond backend serves thousands of
	// probes per second, narrow enough not to stampede a real service.
	defaultGatherWidth = 64
	// pipelinedGatherCutoff is the probe count below which a gather over
	// sources that do not batch runs inline (see Pipelined.overlaps). It
	// is deliberately tiny: the executor exists for sources where a
	// single access costs more than a goroutine handoff.
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
// The random-access phase is the serial one (ExecContext.Gather), except
// that its chunks — one round trip each over a subsys.BatchGrader, one
// probe otherwise — fan out on up to P workers, across both lists and
// objects, before anything is paid for. Payment stays strictly on
// delivery in both phases, so the Section 5 tallies are bit-identical to
// the serial evaluation's (the equivalence tests pin this), and budgets
// compose: reservations happen before delivery, and a failed reservation
// closes every pipeline.
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

// overlaps reports whether a gather of n objects over lists fans out:
// when a source batches, so that each chunk is a round trip to hide, or
// when it can make at least pipelinedGatherCutoff probes. A bare
// in-memory list reads its misses in one loop too, but hides nothing.
func (p *Pipelined) overlaps(lists []*subsys.Counted, n int) bool {
	for _, l := range lists {
		if l.GradeBatch() > 1 && l.Fallible() {
			return true
		}
	}
	return n*len(lists) >= pipelinedGatherCutoff
}

// ctxCheckEvery paces the gather workers' cancellation polls: one per
// 256 chunks, frequent enough to notice cancellation mid-phase, cheap
// enough to vanish in the noise of the reads themselves.
const ctxCheckEvery = 256

// gather is ExecContext.gather with the chunks of every list's misses
// fanned out on up to width() workers, then paid for list-major up to
// the first failure. It fails only with the *AbandonedError of a
// cancellation.
func (p *Pipelined) gather(ctx context.Context, lists []*subsys.Counted, objs []int, cols [][]float64, off int) error {
	// A chunk is the run [lo, hi) of list j's staged misses; reading it
	// leaves how far they were read in n, and the failure, if any, in err.
	type chunk struct {
		j, lo, hi, n int
		err          error
	}
	var chunks []chunk
	for j, l := range lists {
		read, size := l.StageGrades(objs, cols[j][off:off+len(objs)]), l.GradeBatch()
		for lo := 0; lo < read; lo += size {
			chunks = append(chunks, chunk{j: j, lo: lo, hi: min(lo+size, read)})
		}
	}
	err := fanOut(ctx, p.width(), len(chunks), func(ctx context.Context, t int) bool {
		if ctx.Done() != nil && t%ctxCheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		c := &chunks[t]
		c.n, c.err = lists[c.j].FetchStaged(c.lo, c.hi, nil)
		c.n += c.lo
		// A source failure stays in its chunk: bailing would make an
		// abandonment of a typed failure, unless it is the cancellation
		// reaching the transport.
		return c.err == nil || ctx.Err() == nil
	})
	if err != nil {
		return err
	}
	t := 0
	for j, l := range lists {
		n, err := 0, error(nil)
		for ; t < len(chunks) && chunks[t].j == j; t++ {
			if err == nil {
				n, err = chunks[t].n, chunks[t].err
			}
		}
		if l.PayStaged(cols[j][off:off+len(objs)], n, err); l.Err() != nil {
			break
		}
	}
	return nil
}
