package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// AbandonedError reports that an evaluation stopped (on cancellation)
// while concurrent source operations were still in flight. The lists and
// scratch state of such an evaluation are poisoned — workers may still
// be writing to them — so the engine reports the cost as of the last
// quiescent checkpoint and lets the abandoned state be garbage collected
// instead of returning it to the pools.
type AbandonedError struct {
	// Cause is the context error that triggered the abandonment.
	Cause error
}

// Error implements error.
func (e *AbandonedError) Error() string {
	return fmt.Sprintf("core: evaluation abandoned with accesses in flight: %v", e.Cause)
}

// Unwrap exposes the context error to errors.Is (context.Canceled,
// context.DeadlineExceeded).
func (e *AbandonedError) Unwrap() error { return e.Cause }

// ErrBudgetExceeded reports an evaluation halted by its access budget.
// Inspect the concrete *BudgetError via errors.As for the tallies.
var ErrBudgetExceeded = errors.New("core: access budget exceeded")

// BudgetError is the typed form of ErrBudgetExceeded: the evaluation
// stopped because the next step would have cost more than the remaining
// budget. Spent is the weighted cost already incurred (it never exceeds
// Limit: reservations are made before accesses are issued, so a budgeted
// evaluation cannot overshoot).
type BudgetError struct {
	// Limit is the configured budget (weighted by the cost model).
	Limit float64
	// Spent is the weighted cost incurred before the stop.
	Spent float64
	// Need is the (worst-case) weighted cost of the step that would have
	// crossed the limit.
	Need float64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: access budget exceeded: spent %.6g of %.6g, next step needs %.6g", e.Spent, e.Limit, e.Need)
}

// Unwrap ties the typed error to the ErrBudgetExceeded sentinel.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// ExecContext carries the per-request execution state of one evaluation:
// the caller's context, the cost model, the optional access budget and,
// when the accesses are to overlap, a Pipelined configuration. Every
// algorithm takes one; Background() is the zero-configuration form for
// callers driving an algorithm directly.
//
// Without a Pipelined configuration the evaluation is serial: every
// access happens on the calling goroutine, exactly as the paper's cost
// analysis narrates it, and cancellation is honored between accesses.
// The executor is transport only — the Section 5 tallies meter what the
// algorithm consumes, and consumption is the same with or without one
// (the equivalence tests pin this bit for bit).
//
// An ExecContext is bound to at most one evaluation at a time (it tracks
// that evaluation's lists for budget accounting and abandonment
// snapshots); build a fresh one per request, as Evaluate does.
type ExecContext struct {
	ctx       context.Context
	done      <-chan struct{}
	pipe      *Pipelined // nil: serial
	model     cost.Model
	lists     []*subsys.Counted
	safe      cost.Cost // tallies at the last quiescent checkpoint
	abandoned bool
	fallible  bool // any list exposes the fallible face; gates Err checks

	// stop is the optional threshold stop-check EvaluateSharded's
	// shards install: polled once per Stage (i.e. once per sorted round)
	// with the algorithm's cursors; returning true fences every list, so
	// the sorted loops run dry and the algorithm falls through to its
	// completion phase over the objects seen so far.
	stop func([]*subsys.Cursor) bool

	// pool is the budget ledger the evaluation reserves from: its own
	// pool of one, or the pool its slices share; nil means unlimited.
	// synced and outstanding are this ExecContext's bookkeeping inside
	// the pool.
	pool        *budgetPool
	synced      float64 // weighted spend already committed to the pool
	outstanding float64 // worst-case price of the in-flight step
}

// EvalOption configures an evaluation (see Evaluate and NewExecContext).
type EvalOption func(*ExecContext)

// WithExecutor runs the evaluation's accesses through the pipelined
// executor x; without it they run serially.
func WithExecutor(x Pipelined) EvalOption {
	return func(ec *ExecContext) { ec.pipe = &x }
}

// WithCostModel prices the two access modes for budget accounting
// (default cost.Unweighted). Invalid models (non-positive prices) are
// ignored.
func WithCostModel(m cost.Model) EvalOption {
	return func(ec *ExecContext) {
		if m.Valid() {
			ec.model = m
		}
	}
}

// WithAccessBudget bounds the weighted middleware cost of the
// evaluation: before each step the algorithm reserves the step's
// worst-case cost, and if the reservation would cross the limit the
// evaluation stops with a *BudgetError and the partial cost spent so
// far. Reservations are pessimistic (a probe that turns out to be cached
// is reserved at full price), so a budgeted evaluation never overshoots
// but may stop slightly before the budget is genuinely exhausted. The
// evaluation reserves from a pool of its own, the ledger a sharded
// evaluation's slices share (see budgetPool). A non-positive limit means
// unlimited.
func WithAccessBudget(limit float64) EvalOption {
	return func(ec *ExecContext) {
		if limit > 0 {
			ec.pool = &budgetPool{limit: limit}
		}
	}
}

// NewExecContext builds the execution state for one evaluation over the
// given counted lists. The lists are used for budget accounting and for
// cost snapshots on abandonment; callers that run algorithms directly
// (tests, the paginator) pass the same lists they hand to TopK.
func NewExecContext(ctx context.Context, lists []*subsys.Counted, opts ...EvalOption) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	ec := &ExecContext{
		ctx:   ctx,
		done:  ctx.Done(),
		model: cost.Unweighted,
		lists: lists,
	}
	for _, opt := range opts {
		opt(ec)
	}
	for _, l := range lists {
		if l.Fallible() {
			ec.fallible = true
			break
		}
	}
	// Context-aware sources (remote transports) run their physical
	// accesses under the request context; shard views and resilience
	// wrappers forward the binding to what they wrap.
	for _, l := range lists {
		l.BindContext(ctx)
	}
	return ec
}

// Background returns an ExecContext with the defaults — background
// context, serial accesses, unweighted model, no budget — for callers
// driving an algorithm directly, outside any request.
func Background() *ExecContext { return NewExecContext(context.Background(), nil) }

// CostModel returns the access prices used for budget accounting.
func (ec *ExecContext) CostModel() cost.Model { return ec.model }

// Abandoned reports whether the evaluation stopped with source
// operations still in flight (see AbandonedError). The lists of an
// abandoned evaluation must not be read or released.
func (ec *ExecContext) Abandoned() bool { return ec.abandoned }

// SafeCost returns the access tallies recorded at the last quiescent
// checkpoint — the exact spend of an abandoned evaluation as of the last
// moment no worker was in flight.
func (ec *ExecContext) SafeCost() cost.Cost { return ec.safe }

// SourceFailure returns the first list failure of the evaluation as a
// typed *subsys.SourceError, or nil. "First" is by list order — the
// deterministic choice when several lists failed — which is also the
// order a serial evaluation surfaces failures in for a single fault
// site. Once a list fails its streams read as exhausted, so an
// algorithm's own loops terminate promptly; the executors check this
// after every stage (and Evaluate as a final net) so the run returns
// the typed error instead of results computed over a truncated list.
func (ec *ExecContext) SourceFailure() error {
	if !ec.fallible {
		return nil
	}
	for _, l := range ec.lists {
		if err := l.Err(); err != nil {
			return err
		}
	}
	return nil
}

// err is the per-round cancellation check: a non-blocking poll of the
// context's done channel (a few nanoseconds when the context cannot be
// canceled), plus — on evaluations over fallible sources — a sweep of
// the lists' sticky failures, so every loop that polls for cancellation
// also notices a failed source.
func (ec *ExecContext) err() error {
	if ec.fallible {
		if serr := ec.SourceFailure(); serr != nil {
			return serr
		}
	}
	if ec.done == nil {
		return nil
	}
	select {
	case <-ec.done:
		return fmt.Errorf("core: evaluation canceled: %w", context.Cause(ec.ctx))
	default:
		return nil
	}
}

// snapshot records the current tallies as the quiescent checkpoint. Only
// called when no worker is in flight.
func (ec *ExecContext) snapshot() {
	if ec.lists != nil {
		ec.safe = subsys.TotalCost(ec.lists)
	}
}

// Stage is the per-round staging point of the sorted-access loops: it
// checks cancellation, and under the pipelined executor prefetches the
// next `ahead` ranks of every live cursor concurrently. The algorithm then
// consumes (and pays for) entries exactly as it would serially.
func (ec *ExecContext) Stage(cursors []*subsys.Cursor, ahead int) error {
	if err := ec.err(); err != nil {
		return err
	}
	if ec.stop != nil && ec.stop(cursors) {
		// Threshold stop: close every sorted stream so the algorithm's
		// round loop terminates and completes over what it has seen. The
		// check is one-shot — fenced lists stay fenced.
		for _, l := range ec.lists {
			l.Fence()
		}
		ec.stop = nil
	}
	if ec.pipe == nil {
		return nil
	}
	ec.snapshot()
	err := ec.pipe.stage(ec.ctx, cursors, ahead)
	if err != nil {
		var ab *AbandonedError
		if errors.As(err, &ab) {
			ec.abandoned = true
		}
		return err
	}
	if ec.fallible {
		// Staging itself is readahead and never records a failure (see
		// subsys.Counted.bufferAhead), but a failure recorded by earlier
		// consumption can land between the err() check above and here.
		// Surface it now, and stop all remaining readahead first: a
		// failing evaluation must not keep touching the sources.
		if serr := ec.SourceFailure(); serr != nil {
			ec.stopPrefetch()
			return serr
		}
	}
	return nil
}

// ReserveRound gates one round-robin step — at most one sorted access
// per live cursor — against the budget. Free (a single compare) with no
// budget configured.
func (ec *ExecContext) ReserveRound(cursors []*subsys.Cursor) error {
	if ec.pool == nil {
		return nil
	}
	return ec.Reserve(liveCursors(cursors), 0)
}

// Reserve gates a step that will perform at most nSorted sorted and
// nRandom random accesses against the budget pool. With no budget
// configured it is free. It does not consume anything: the actual spend
// is whatever the step's accesses tally. A failed reservation
// additionally closes any background prefetch pipelines on the
// evaluation's lists — once the budget is exhausted, nothing may keep
// touching the sources, not even uncounted readahead.
func (ec *ExecContext) Reserve(nSorted, nRandom int) error {
	if ec.pool == nil {
		return nil
	}
	need := ec.model.C1*float64(nSorted) + ec.model.C2*float64(nRandom)
	if err := ec.pool.reserve(ec, need); err != nil {
		ec.stopPrefetch()
		return err
	}
	return nil
}

// stopPrefetch closes the background prefetch pipelines of every list of
// the evaluation (without waiting out in-flight batches). Called when
// the evaluation must not issue further source accesses: a budget
// reservation failure.
func (ec *ExecContext) stopPrefetch() {
	for _, l := range ec.lists {
		l.AbortPrefetch()
	}
}

// Gather runs the random-access phase — cols[j][i] = lists[j].Grade of
// objs[i] — serially, or overlapped under the pipelined executor. Both
// fill the columns list-major: a list's misses are then read from its
// source in one go (subsys.Counted.Grades), where an object-major sweep
// waits out each probe's cache misses, or its round trip, before issuing
// the next. Under a budget it is that object-major sweep nonetheless,
// serial, with an exact per-object reservation, so the budget is never
// overshot.
func (ec *ExecContext) Gather(lists []*subsys.Counted, objs []int, cols [][]float64) error {
	if err := ec.err(); err != nil {
		return err
	}
	var err error
	switch {
	case ec.pool != nil:
		err = ec.gatherBudgeted(lists, objs, cols)
	case ec.pipe != nil:
		ec.snapshot()
		err = ec.pipe.gather(ec.ctx, lists, objs, cols)
		if err != nil {
			var ab *AbandonedError
			if errors.As(err, &ab) {
				ec.abandoned = true
			}
		}
	default:
		err = gatherInline(ec.ctx, lists, objs, cols)
	}
	if err == nil && ec.fallible {
		// A probe may have hit a terminal source failure (recorded as the
		// list's sticky error; Grade then returned 0). Surface it before
		// the zeros can flow into an aggregation.
		if serr := ec.SourceFailure(); serr != nil {
			ec.stopPrefetch()
			return serr
		}
	}
	return err
}

// appendScores runs the random-access-plus-computation phase shared by
// the A₀ family: complete every object's grade vector across lists, then
// append (object, t(vector)) to entries, preserving object order. The
// grades are gathered into one column per list (see Gather) and the
// aggregation runs over the columns, serial or pipelined: each (list,
// object) grade is paid for at most once, whatever the order.
func (ec *ExecContext) appendScores(sc *scratch, lists []*subsys.Counted, objs []int, t agg.Func, entries []gradedset.Entry) ([]gradedset.Entry, error) {
	cols := sc.colsBuf(len(lists), len(objs))
	if err := ec.Gather(lists, objs, cols); err != nil {
		return entries, err
	}
	buf := sc.gradesBuf(len(lists))
	for i, obj := range objs {
		for j := range cols {
			buf[j] = cols[j][i]
		}
		entries = append(entries, gradedset.Entry{Object: obj, Grade: t.Apply(buf)})
	}
	return entries, nil
}

// ReserveProbes reserves the random accesses needed to complete obj's
// grade vector across lists: exactly the grades not already paid for.
// Free with no budget configured.
func (ec *ExecContext) ReserveProbes(lists []*subsys.Counted, obj int) error {
	if ec.pool == nil {
		return nil
	}
	missing := 0
	for _, l := range lists {
		if _, ok := l.Known(obj); !ok {
			missing++
		}
	}
	return ec.Reserve(0, missing)
}

// gatherBudgeted is the budget-respecting gather: object-major, with an
// exact reservation (only genuinely unknown grades are priced) before
// each object's probes.
func (ec *ExecContext) gatherBudgeted(lists []*subsys.Counted, objs []int, cols [][]float64) error {
	for i, obj := range objs {
		if i%ctxCheckEvery == 0 {
			if err := ec.err(); err != nil {
				return err
			}
		}
		if err := ec.ReserveProbes(lists, obj); err != nil {
			return err
		}
		for j, l := range lists {
			cols[j][i] = l.Grade(obj)
		}
	}
	return nil
}

// releaseScratch pools the scratch unless the evaluation was abandoned
// (in which case in-flight workers may still write to it; let the GC
// collect it instead).
func (ec *ExecContext) releaseScratch(s *scratch) {
	if !ec.abandoned {
		s.release()
	}
}

// ctxCheckEvery paces cancellation polls inside long serial probe
// loops: frequent enough that even a shard-sized sweep (a few hundred
// objects) notices cancellation mid-phase, cheap enough (one channel
// poll per 256 probes) to vanish in the noise of the probes
// themselves. Polls never touch the tallies.
const ctxCheckEvery = 256

// gatherInline is the serial random-access phase: list-major, one
// column after another, each through the batched column routine in spans
// of ctxCheckEvery objects with a cancellation poll between spans. It is
// the order the pipelined gather pays in too, so both leave the same
// tallies and report the same first SourceError.
func gatherInline(ctx context.Context, lists []*subsys.Counted, objs []int, cols [][]float64) error {
	done := ctx.Done()
	for j, l := range lists {
		for lo := 0; lo < len(objs); lo += ctxCheckEvery {
			if done != nil {
				select {
				case <-done:
					return fmt.Errorf("core: evaluation canceled: %w", context.Cause(ctx))
				default:
				}
			}
			hi := min(lo+ctxCheckEvery, len(objs))
			l.Grades(objs[lo:hi], cols[j][lo:hi])
		}
	}
	return nil
}

// Concurrent names the executor that ran one worker per list; Pipelined
// at the same width matched or beat it wherever there was latency to
// hide, so it is gone.
//
// Deprecated: bench/ladder.go, which a PR may not edit, still writes
// core.Concurrent{P: arity}; the alias goes with that ladder rung.
type Concurrent = Pipelined

// fanOut runs f(ctx, 0..n-1) on up to the given number of workers and
// waits for all of them — unless ctx is canceled first, in which case it
// returns an *AbandonedError immediately and the workers finish (or
// notice the cancellation) on their own. f reports whether it completed
// its item; a worker whose f bails early (on cancellation) poisons the
// fan-out, so a run can only return nil when every item was fully
// processed.
func fanOut(ctx context.Context, workers, n int, f func(ctx context.Context, i int) bool) error {
	if workers > n {
		workers = n
	}
	if workers == 1 && ctx.Done() == nil {
		// No overlap possible and no cancellation to honor: run inline.
		// f cannot bail without a cancelable context.
		for i := 0; i < n; i++ {
			f(ctx, i)
		}
		return nil
	}
	var next atomic.Int64
	var aborted atomic.Bool
	// Buffered to workers: a worker's final send never blocks, so an
	// abandoned worker still exits on its own.
	tokens := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { tokens <- struct{}{} }()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !f(ctx, i) {
					aborted.Store(true)
					return
				}
			}
		}()
	}
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		select {
		case <-tokens:
		case <-done:
			// Drain without blocking: if every worker finished AND none
			// bailed, nothing is in flight and the work is complete.
			for ; w < workers; w++ {
				select {
				case <-tokens:
				default:
					return &AbandonedError{Cause: context.Cause(ctx)}
				}
			}
			if aborted.Load() {
				return &AbandonedError{Cause: context.Cause(ctx)}
			}
			return nil
		}
	}
	if aborted.Load() {
		// Every worker exited, but at least one bailed mid-item: the
		// results are incomplete and must be discarded by the caller.
		return &AbandonedError{Cause: context.Cause(ctx)}
	}
	return nil
}
