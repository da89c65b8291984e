package subsys

import (
	"errors"
	"fmt"

	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
)

// Source is a subsystem's materialized answer to one atomic query,
// supporting the two access modes of Section 4. Rank 0 is the best match.
// Grade returns 0 for objects the source does not grade (a predicate that
// is false grades 0).
type Source interface {
	// Len returns the number of graded objects.
	Len() int
	// Entry performs sorted access: the entry at the given rank.
	Entry(rank int) gradedset.Entry
	// Entries performs batched sorted access: the entries at ranks
	// [lo, hi) in one call. It is the bulk form of Entry — semantically
	// hi−lo units of sorted access delivered together. Counted calls it
	// once per prefix extension, for exactly the ranks its consumer
	// demands or its prefetch pipeline reads ahead, so a wrapper sees
	// the same calls whatever it wraps (a bare ListSource is read
	// straight from its list instead; see Counted). The returned slice
	// may share the source's storage and must not be mutated; it is
	// valid until the next call on the source.
	Entries(lo, hi int) []gradedset.Entry
	// Grade performs random access: the grade of the given object.
	Grade(obj int) float64
}

// UniverseHinter is the old optional declaration of the universe
// {0,…,N−1}. Every Source now grades exactly 0…Len()−1 (see Counted), so
// nothing in the engine reads the hint any more.
//
// Deprecated: there is one object universe; the interface is kept only
// for callers that still forward it.
type UniverseHinter interface {
	// Universe returns the universe size N when the source grades
	// exactly the objects 0,…,N−1.
	Universe() (n int, dense bool)
}

// ErrOutsideUniverse is the cause of the *SourceError a list fails with
// when its source names an object outside 0…Len()−1: on sorted access
// at the rank that named it, on random access at the object asked for.
var ErrOutsideUniverse = errors.New("subsys: object outside the universe 0…N−1")

// outside is the sticky failure for obj outside a universe of n objects.
func outside(obj, n int) error { return fmt.Errorf("%w: object %d of %d", ErrOutsideUniverse, obj, n) }

// ListSource adapts a gradedset.List to the Source interface.
type ListSource struct {
	list *gradedset.List
}

// FromList wraps a graded list as a Source.
func FromList(l *gradedset.List) ListSource { return ListSource{list: l} }

// Len implements Source.
func (s ListSource) Len() int { return s.list.Len() }

// Entry implements Source.
func (s ListSource) Entry(rank int) gradedset.Entry { return s.list.Entry(rank) }

// Entries implements Source: a zero-copy view of the ranks [lo, hi).
func (s ListSource) Entries(lo, hi int) []gradedset.Entry { return s.list.Range(lo, hi) }

// Grade implements Source; absent objects grade 0.
func (s ListSource) Grade(obj int) float64 {
	g, _ := s.list.Lookup(obj)
	return g
}

// Counted wraps a Source with access metering and memoization. It is the
// object algorithms actually touch: every grade that reaches an algorithm
// has been paid for exactly once, so the counters are the S and R of the
// Section 5 cost model by construction.
//
// Sorted access is sequential within the subsystem — to see rank r the
// middleware must have received ranks 0…r — but the middleware caches
// everything it has received, so re-reading an already-delivered rank
// (for example when a later phase of a plan rescans a prefix) costs
// nothing. The sorted cost of a list is therefore its high-water mark:
// the deepest prefix ever delivered to an algorithm.
//
// The buffered prefix can run ahead of the paid high-water mark: a
// prefetch pipeline (StartPrefetch) reads ranks from the source into the
// buffer without delivering them. That is how the pipelined executor
// overlaps the m per-round sorted accesses across subsystems — readahead
// is a latency-hiding detail of the transport, while the Section 5
// tallies meter exactly what the algorithm consumed, so they are
// bit-identical to a serial evaluation. A bare in-memory ListSource
// without a pipeline reads ahead too: an unmet demand copies one span
// into the buffer, to the depth stated with Expect or twice what is
// buffered, whichever is more, so a sorted phase costs a few copies
// rather than a source call per rank. No wrapper sees that list, and it
// cannot fail, so the span's length is observable nowhere but in
// Buffered.
// The grade memo (which decides whether a later random access is free)
// is likewise updated only at delivery time, never by readahead.
//
// Every source grades the universe 0…Len()−1, so the memo is an
// epoch-stamped flat array of Len() slots drawn from a pool, and a
// metered access costs two array writes. The bounds test that write
// makes is the universe check: a sorted entry or a probe naming any other
// object fails the list with ErrOutsideUniverse, unpaid. The delivered
// prefix is cached in order, so re-reads never touch the source again.
type Counted struct {
	src     Source
	fs      FallibleSource    // non-nil when src exposes the fallible face
	bg      BatchGrader       // non-nil when src batches random access
	idx     int               // list index within the evaluation (SourceError.List)
	serr    *SourceError      // sticky first failure; the stream then reads as exhausted
	length  int               // src.Len(), cached off the interface
	fetched int               // paid high-water mark: entries delivered by sorted access
	random  int               // R for this list
	fenced  bool              // sorted stream closed early (threshold stop); see Fence
	prefix  []gradedset.Entry // buffered prefix, prefix[r] = entry at rank r; may exceed fetched
	dc      *denseCache       // grade memo over 0…length−1; nil after Release
	list    *gradedset.List   // the list itself when src is a bare in-memory ListSource
	pipe    *pipeline         // background prefetcher; nil until StartPrefetch
	expect  int               // rank the evaluation expects to read to (see Expect); 0 = unstated
	pstats  PipelineStats     // stats snapshot kept past Release
	piped   bool              // a pipeline ran at some point (pstats is meaningful)
}

// Count wraps src for metered access over the universe 0…src.Len()−1.
func Count(src Source) *Counted {
	// Probed, not resolved with FacesOf: whether the source can fail at
	// all decides Fallible(), and an adapter per list per query is an
	// allocation the in-process path does not pay.
	c := &Counted{src: src, length: src.Len()}
	if f, ok := src.(FallibleSource); ok {
		c.fs = f
	}
	if bg, ok := src.(BatchGrader); ok && bg.MaxGrades() > 0 {
		c.bg = bg
	}
	if ls, ok := src.(ListSource); ok {
		// Only the bare adapter: behind a wrapper (latency, faults, a
		// tracer) a probe is no longer two array reads, and the wrapper
		// must keep seeing every access. And only over the universe: a
		// list that grades other objects can fail (ErrOutsideUniverse),
		// which Fallible must report.
		if _, ok := ls.list.DenseUniverse(); ok {
			c.list = ls.list
		}
	}
	c.dc = acquireDenseCache(c.length)
	c.prefix = c.dc.prefix[:0]
	return c
}

// CountAll wraps each source of a list, recording each list's index so
// a failure can name the list it happened on (SourceError.List).
func CountAll(srcs []Source) []*Counted {
	out := make([]*Counted, len(srcs))
	for i, s := range srcs {
		out[i] = Count(s)
		out[i].idx = i
	}
	return out
}

// Release returns pooled resources to the pool. The Counted must not be
// accessed afterwards (except that previously returned Cost values remain
// valid). Callers that keep lists alive across evaluations — paginators,
// multi-phase plans — simply never call it.
func (c *Counted) Release() {
	if c.pipe != nil {
		// Stop the prefetcher without waiting for an in-flight batch: a
		// wedged source must not wedge Release (a budget-stopped
		// evaluation still releases its lists). The worker exits on its
		// own once its call returns — it touches only its private spool
		// and its own copy of the source, never the pooled state being
		// recycled here — and a batch still in flight at shutdown is
		// simply not counted in the final stats.
		c.pipe.close()
		c.pstats = c.pipe.snapshot()
		c.piped = true
		c.pipe = nil
	}
	if c.dc != nil {
		// The prefix buffer goes back with the memo: its capacity is what
		// the next evaluation's sorted phase fills instead of growing one
		// from empty.
		c.dc.prefix = c.prefix
		releaseDenseCache(c.dc)
		c.dc = nil
	}
	c.prefix = nil
	c.src = nil
}

// ReleaseAll releases every list of an evaluation.
func ReleaseAll(cs []*Counted) {
	for _, c := range cs {
		c.Release()
	}
}

// Len returns the number of graded objects.
func (c *Counted) Len() int { return c.length }

// Depth returns the high-water mark of sorted access.
func (c *Counted) Depth() int { return c.fetched }

// Fence closes the list's sorted stream early: from now on every cursor
// over it reports exhaustion and delivers nothing more, exactly as if
// the list ended at the ranks already consumed. Random access and the
// grade memo are unaffected — a fenced evaluation still completes the
// grade vectors of the objects it has seen.
//
// Fencing is how a threshold-aware shard driver stops a shard whose
// remaining objects provably cannot reach the global top k: the
// algorithm's sorted loop sees its cursors run dry and falls through to
// its completion phase over the seen objects. Fence must be called from
// the goroutine driving the evaluation (it is not synchronized).
//
// Fencing also drains an attached prefetch pipeline: the worker stops
// issuing sorted accesses once its in-flight batch (if any) returns, so
// a fenced list costs the backing source nothing further.
func (c *Counted) Fence() {
	c.fenced = true
	if c.pipe != nil {
		c.pipe.close()
	}
}

// Fenced reports whether the sorted stream was closed early.
func (c *Counted) Fenced() bool { return c.fenced }

// ensureBuffered extends the buffered prefix to at least n entries on
// behalf of a consumer about to deliver them: absorbing from the
// background pipeline when one is attached (waiting for it if
// necessary), and reading the missing ranks from the source in one
// batched call otherwise (or when the pipeline was closed early) — over
// a bare list, one span read ahead past n (see buffer). It
// does not deliver anything: the paid high-water mark and the grade
// memo are untouched. A source failure that leaves the demand unmet is
// recorded as the list's sticky error.
func (c *Counted) ensureBuffered(n int) { c.buffer(n, true) }

// bufferAhead is ensureBuffered's speculative twin, used by readahead
// (executor staging): a source failure is swallowed — the
// partial span is kept and the fault site is left to re-fire if and
// when a consumer actually demands the rank. Recording it here would
// make failure surfacing depend on how far an executor happens to read
// ahead, breaking cross-executor equivalence; swallowing mirrors the
// metering rule that readahead is invisible until delivery.
func (c *Counted) bufferAhead(n int) { c.buffer(n, false) }

func (c *Counted) buffer(n int, demand bool) {
	if n > c.length {
		n = c.length
	}
	if n <= len(c.prefix) {
		return
	}
	if c.serr != nil {
		// Failed list: the sorted stream reads as exhausted at the
		// already-buffered prefix; no further source accesses.
		return
	}
	if c.pipe != nil {
		c.pipe.demand(n)
		c.prefix = c.pipe.drainInto(c.prefix)
		for len(c.prefix) < n && c.pipe.await(n, nil) {
			c.prefix = c.pipe.drainInto(c.prefix)
		}
		// The close path returns from await without a drain: absorb the
		// worker's final partial span before deciding anything, so a
		// failure pins to the true first missing rank and the direct
		// read below never overlaps ranks still parked in the spool.
		c.prefix = c.pipe.drainInto(c.prefix)
		if n <= len(c.prefix) {
			return
		}
		if err := c.pipe.failure(); err != nil {
			// The pipeline worker hit a terminal source failure. Its
			// partial span has been drained, so the failure pins to the
			// first rank the prefix is missing — but only a consumer's
			// unmet demand records it; a readahead shortfall stays
			// invisible.
			if demand {
				c.failSorted(len(c.prefix), err)
			}
			return
		}
		// Pipeline closed early (fence, abort): fall through to a direct
		// read for whatever the consumer still insists on delivering.
	}
	if c.list != nil {
		// A bare in-memory list: no wrapper observes the call and the list
		// cannot fail, so an unpiped read runs ahead in one span to the
		// depth the evaluation expects (Expect), or to twice what is
		// buffered, instead of one call per rank. Readahead is uncounted,
		// as the pipeline's is: payment and the memo wait for delivery.
		hi := n
		if c.pipe == nil {
			hi = min(max(n, c.expect, 2*len(c.prefix)), c.length)
		}
		c.prefix = c.list.AppendRange(c.prefix, len(c.prefix), hi)
		return
	}
	var span []gradedset.Entry
	var err error
	if c.fs != nil {
		span, err = c.fs.TryEntries(len(c.prefix), n)
	} else {
		span = c.src.Entries(len(c.prefix), n)
	}
	c.prefix = append(c.prefix, span...)
	if demand && len(c.prefix) < n {
		// Record a failure only when it left the demand unmet: an error
		// alongside a complete span means a source that reads beyond the
		// request internally (a shard view's chunked re-ranking) hit a
		// fault past the demanded ranks, and the site must stay invisible
		// — it re-fires if a later demand actually needs it. A short span
		// without an error is a failure too (see errShortSpan).
		if err == nil {
			err = errShortSpan
		}
		c.failSorted(len(c.prefix), err)
	}
}

// failSorted records the sticky first failure of this list's sorted
// stream at the given rank (the first undelivered one).
func (c *Counted) failSorted(rank int, err error) {
	if c.serr == nil {
		c.serr = newSourceError(c.idx, rank, false, err)
	}
}

// failRandom records the sticky first failure of this list's random
// access at the given object.
func (c *Counted) failRandom(obj int, err error) {
	if c.serr == nil {
		c.serr = newSourceError(c.idx, obj, true, err)
	}
}

// Err returns the list's sticky failure as a *SourceError, or nil. Once
// set, the list's sorted stream reads as exhausted and random access
// returns 0 without touching the source; executors check Err after each
// stage and surface it as the evaluation's typed error (the exhausted
// reads never leak into results).
func (c *Counted) Err() error {
	if c.serr == nil {
		return nil
	}
	return c.serr
}

// Fallible reports whether the list can fail mid-query: its source
// exposes a fallible face (FallibleSource or BatchGrader), or it is
// anything but a bare in-memory list over the universe — any other
// Source can still deliver a short sorted span (see errShortSpan) or an
// object outside the universe (see ErrOutsideUniverse).
func (c *Counted) Fallible() bool { return c.fs != nil || c.bg != nil || c.list == nil }

// Expect states how many ranks of the list the evaluation expects its
// sorted phase to read, before it reads any: an algorithm whose stopping
// depth has a closed form (the A₀ family, Theorem 5.3) says so, and an
// adaptive prefetch pipeline started afterwards opens its window there
// instead of finding the depth one doubling — one round trip — at a time.
// Transport only, like the pipeline itself: an expectation that turns out
// wrong costs over-read or extra round trips, never an access in the
// tally. It does not reach a pipeline that is already running.
func (c *Counted) Expect(rank int) { c.expect = rank }

// StartPrefetch attaches a background prefetch pipeline to the list: a
// worker goroutine keeps the uncounted readahead buffer ahead of
// consumption by issuing batched sorted accesses at an adaptive depth —
// open at the rank stated with Expect, or at 1 without one, double on
// stall, halve when the consumer falls behind, capped at maxDepth or, for
// maxDepth <= 0, DefaultPrefetchCap; see pipeline for the whole policy.
// Payment stays strictly on delivery — the pipeline never
// advances the sorted tally or the grade memo — so tallies are
// bit-identical to an unpipelined run.
//
// The worker reads the source concurrently with the evaluation's random
// accesses, so the source must tolerate concurrent reads (every built-in
// source and wrapper does). Idempotent; no-op on fenced or released
// lists. Stop with StopPrefetch/AbortPrefetch, or let Release do it.
func (c *Counted) StartPrefetch(maxDepth int) {
	if c.pipe != nil || c.fenced || c.src == nil || c.serr != nil {
		return
	}
	c.pipe = newPipeline(c.src, c.fs, c.length, len(c.prefix), maxDepth, c.expect)
	c.piped = true
}

// AbortPrefetch closes the pipeline without waiting for its in-flight
// batch: no further source accesses are issued. Used on cancellation (a
// wedged batch must not block the evaluation's return) and after a
// budget reservation failure (never prefetch past one). Safe to call
// from the evaluation goroutine at any time; idempotent.
func (c *Counted) AbortPrefetch() {
	if c.pipe != nil {
		c.pipe.close()
	}
}

// StopPrefetch closes the pipeline and waits for its worker to exit —
// after it returns, the evaluation goroutine is the source's only
// toucher again. Do not call with a wedged batch in flight (use
// AbortPrefetch, or Release, which stop without waiting).
func (c *Counted) StopPrefetch() {
	if c.pipe != nil {
		c.pipe.close()
		c.pipe.join()
	}
}

// PrefetchStats reports what the list's prefetch pipeline did, if one
// was ever attached. Valid during the evaluation and after Release.
func (c *Counted) PrefetchStats() (PipelineStats, bool) {
	if c.pipe != nil {
		return c.pipe.snapshot(), true
	}
	return c.pstats, c.piped
}

// deliver pays for ranks [fetched, hi): the entries enter the grade memo
// and the sorted-access tally advances. Callers must have buffered
// through hi first.
func (c *Counted) deliver(hi int) {
	if hi > len(c.prefix) {
		// A failed list's prefix can run short of the request; deliver
		// (and pay for) only what was actually obtained.
		hi = len(c.prefix)
	}
	if hi <= c.fetched {
		return
	}
	for i, got := range c.prefix[c.fetched:hi] {
		if !c.dc.put(got.Object, got.Grade) {
			// The entry names an object outside the universe: the list
			// fails at its rank, and the stream ends before it, unpaid.
			rank := c.fetched + i
			c.failSorted(rank, outside(got.Object, c.length))
			c.prefix, c.fetched = c.prefix[:rank], rank
			return
		}
	}
	c.fetched = hi
}

// Buffered returns how many ranks are buffered (paid or prefetched).
func (c *Counted) Buffered() int { return len(c.prefix) }

// EntryAt returns the entry at the given rank via sorted access,
// advancing (and paying for) the prefix up to that rank if it has not
// been delivered before. ok is false beyond the end of the list. The
// advance reads from the source only what is not buffered yet — one
// batched Entries call, one span read ahead over a bare list, nothing if
// prefetched — and the delivered prefix is kept, so each rank costs
// exactly one sorted access in the tally ever.
func (c *Counted) EntryAt(rank int) (e gradedset.Entry, ok bool) {
	if rank < 0 || rank >= c.length {
		return gradedset.Entry{}, false
	}
	c.ensureBuffered(rank + 1)
	c.deliver(rank + 1)
	if rank >= len(c.prefix) {
		// Failed list: the rank was never obtained.
		return gradedset.Entry{}, false
	}
	return c.prefix[rank], true
}

// entriesTo delivers ranks [lo, hi) for a cursor: like EntryAt but
// returning the whole span. The returned slice is valid until the next
// sorted access on this list.
func (c *Counted) entriesTo(lo, hi int) []gradedset.Entry {
	c.ensureBuffered(hi)
	c.deliver(hi)
	if n := len(c.prefix); hi > n {
		// Failed list: return the (possibly empty) span that was
		// actually obtained.
		hi = n
		if lo > hi {
			lo = hi
		}
	}
	return c.prefix[lo:hi]
}

// Grade performs random access for obj. If the grade is already known to
// the middleware — from earlier sorted or random access on this list —
// the cached value is returned at no cost, per Section 4's observation
// that no access is needed for objects already seen.
func (c *Counted) Grade(obj int) float64 {
	if g, ok := c.dc.get(obj); ok {
		return g
	}
	if c.serr != nil {
		// Failed list: unknown grades read as 0 without touching the
		// source; the executor's post-stage Err check turns the run
		// into the typed error before the 0 can reach a result.
		return 0
	}
	if uint(obj) >= uint(c.length) {
		c.failRandom(obj, outside(obj, c.length))
		return 0
	}
	var g float64
	if c.fs != nil {
		var err error
		if g, err = c.fs.TryGrade(obj); err != nil {
			c.failRandom(obj, err)
			return 0
		}
	} else {
		g = c.src.Grade(obj)
	}
	c.random++
	c.dc.set(obj, g)
	return g
}

// Grades is the random-access phase of one list, the batched form of
//
//	for i, obj := range objs { col[i] = c.Grade(obj) }
//
// with exactly that loop's outcome: the column, the random tally, the
// memo and the sticky first failure (duplicates in objs
// and objects outside the universe included). What changes is how
// the source is read. Known grades are resolved inline; the misses are
// collected and read in one go — straight from the list when the source
// is an in-memory ListSource (one loop of independent loads instead of
// a virtual call per probe), in GradeBatch() chunks over a BatchGrader —
// and then paid for through DeliverGrade in ascending index order. A
// source with neither gets one Grade call per miss, as before.
func (c *Counted) Grades(objs []int, col []float64) {
	b := &c.dc.miss
	at, ids := b.at[:0], b.ids[:0]
	read := -1 // misses before the first object outside the universe
	for i, obj := range objs {
		if g, ok := c.dc.get(obj); ok {
			col[i] = g
			continue
		}
		if read < 0 && uint(obj) >= uint(c.length) {
			read = len(ids)
		}
		at, ids = append(at, i), append(ids, obj)
	}
	b.at, b.ids = at, ids
	if c.list == nil && c.bg == nil {
		for t, i := range at {
			col[i] = c.Grade(ids[t])
		}
		return
	}
	if read < 0 {
		read = len(ids)
	}
	if cap(b.out) < len(ids) {
		b.out = make([]float64, len(ids))
	}
	out := b.out[:len(ids)]
	size := read
	if c.list == nil {
		size = c.GradeBatch()
	}
	for lo := 0; lo < read && c.serr == nil; lo += size {
		hi := min(lo+size, read)
		n, err := c.TrySourceGrades(ids[lo:hi], out[lo:hi])
		for t := lo; t < lo+n; t++ {
			col[at[t]] = c.DeliverGrade(ids[t], out[t])
		}
		if err != nil {
			c.failRandom(ids[lo+n], err)
		}
	}
	if read < len(ids) {
		c.failRandom(ids[read], outside(ids[read], c.length))
	}
	if c.serr != nil {
		// Failed list (now or before the call): a miss the source never
		// delivered reads as 0, a delivered one as what the memo holds.
		for t, i := range at {
			col[i], _ = c.Known(ids[t])
		}
	}
}

// missBuf is the staging of one Grades call: for each object whose grade
// was not known, its index in objs and its id, and the grades read for
// them from the source.
type missBuf struct {
	at, ids []int
	out     []float64
}

// GradeBatch is the most objects one TrySourceGrades call fetches in a
// single source call: the source's MaxGrades, or 1 without BatchGrader.
func (c *Counted) GradeBatch() int {
	if c.bg != nil {
		return c.bg.MaxGrades()
	}
	return 1
}

// TrySourceGrades reads the grades of objs from the underlying source
// directly — out[i] for objs[i], in one call when the source batches
// random access: no metering, no memo, raw transport. n is the number
// of grades obtained before err (see BatchGrader). It exists for
// executors that overlap random accesses out of band and then pay for
// them in order via DeliverGrade (or record the failure via FailGrade);
// unlike every other method it may be called from several goroutines at
// once (the source must tolerate concurrent reads).
func (c *Counted) TrySourceGrades(objs []int, out []float64) (n int, err error) {
	switch {
	case c.list != nil:
		c.list.Grades(objs, out)
	case c.bg != nil:
		n, err = c.bg.TryGrades(objs, out)
		if n >= len(objs) {
			return len(objs), nil
		}
		if err == nil {
			err = errShortGrades
		}
		return n, err
	case c.fs != nil:
		for i, obj := range objs {
			if out[i], err = c.fs.TryGrade(obj); err != nil {
				return i, err
			}
		}
	default:
		for i, obj := range objs {
			out[i] = c.src.Grade(obj)
		}
	}
	return len(objs), nil
}

// errShortGrades pins a BatchGrader that broke its contract (fewer
// grades than asked, no error) instead of delivering zeros.
var errShortGrades = errors.New("subsys: batched random access returned short without an error")

// errShortSpan is errShortGrades' twin for sorted access: a source
// whose span ends before the ranks asked for (all below Len()) without
// an error has broken the contract that sorted access delivers the
// whole graded set, so the list fails instead of reading as exhausted
// over a silently truncated stream.
var errShortSpan = errors.New("subsys: sorted access returned short without an error")

// FailGrade records a random-access failure observed out of band (see
// TrySourceGrades) as the list's sticky error. Like DeliverGrade it must
// be called from the evaluation goroutine, in serial probe order, so the
// failure that sticks is the one a serial evaluation would have hit
// first.
func (c *Counted) FailGrade(obj int, err error) { c.failRandom(obj, err) }

// DeliverGrade pays for one random access whose grade was fetched out of
// band (see TrySourceGrades): if obj is already known the memoized grade
// is returned at no cost — exactly the cache hit a serial probe would
// have had — otherwise the random tally advances and g enters the memo.
// Must be called from the evaluation goroutine, in the same order a
// serial evaluation would have probed, so tallies and memo state
// coincide.
func (c *Counted) DeliverGrade(obj int, g float64) float64 {
	if g0, ok := c.dc.get(obj); ok {
		return g0
	}
	if !c.dc.put(obj, g) {
		c.failRandom(obj, outside(obj, c.length))
		return 0
	}
	c.random++
	return g
}

// Known reports the grade of obj if it has already been paid for.
func (c *Counted) Known(obj int) (float64, bool) { return c.dc.get(obj) }

// Cost returns this list's access tallies so far.
func (c *Counted) Cost() cost.Cost {
	return cost.Cost{Sorted: c.fetched, Random: c.random}
}

// TotalCost sums the tallies across lists.
func TotalCost(cs []*Counted) cost.Cost {
	var total cost.Cost
	for _, c := range cs {
		total = total.Add(c.Cost())
	}
	return total
}

// Cursor is one consumer's position in a list's sorted stream. Several
// cursors (phases of a plan, pages of a paginated query) can read the
// same Counted list; overlapping prefixes are paid for once.
type Cursor struct {
	list *Counted
	pos  int
	last float64 // grade of the most recent entry consumed; 1 before any read
}

// NewCursor returns a cursor at the top of the list.
func NewCursor(list *Counted) *Cursor { return &Cursor{list: list, last: 1} }

// Cursors returns one fresh cursor per list.
func Cursors(lists []*Counted) []*Cursor {
	out := make([]*Cursor, len(lists))
	for i, l := range lists {
		out[i] = NewCursor(l)
	}
	return out
}

// Next returns the next entry in descending grade order, or ok = false at
// the end of the list (or past a Fence).
//
// A cursor at the list's high-water mark with the next rank already
// buffered — every round of a round-robin sorted phase once a span is
// read ahead — delivers it inline: one memo write and the two counters.
// Anything else (a re-read, an unbuffered rank, an object outside the
// universe) takes EntryAt.
func (cu *Cursor) Next() (e gradedset.Entry, ok bool) {
	c := cu.list
	if c.fenced {
		return gradedset.Entry{}, false
	}
	if p := cu.pos; p == c.fetched && p < len(c.prefix) {
		e = c.prefix[p]
		if c.dc.put(e.Object, e.Grade) {
			c.fetched, cu.pos, cu.last = p+1, p+1, e.Grade
			return e, true
		}
	}
	e, ok = c.EntryAt(cu.pos)
	if ok {
		cu.pos++
		cu.last = e.Grade
	}
	return e, ok
}

// NextBatch returns up to max next entries in one batched sorted access,
// advancing the cursor past them. It returns nil at the end of the list.
// The returned slice must not be mutated and is valid until the next
// sorted access on the underlying list. Callers must genuinely want all
// max entries: every entry returned is paid for.
func (cu *Cursor) NextBatch(max int) []gradedset.Entry {
	if max <= 0 || cu.Exhausted() {
		return nil
	}
	hi := cu.pos + max
	if n := cu.list.Len(); hi > n {
		hi = n
	}
	span := cu.list.entriesTo(cu.pos, hi)
	// Advance by what was actually delivered: a failed list returns a
	// short span, and the cursor must not skip past ranks never seen.
	cu.pos += len(span)
	if len(span) > 0 {
		cu.last = span[len(span)-1].Grade
	}
	return span
}

// Pos returns how many entries this cursor has consumed.
func (cu *Cursor) Pos() int { return cu.pos }

// Consumed returns the entries this cursor has consumed, ranks
// [0, Pos()), as a read-only view of the list's delivered prefix — not
// [0, Depth()), which another cursor (an earlier phase, a previous page)
// may have pushed deeper. Valid until the list is released.
func (cu *Cursor) Consumed() []gradedset.Entry { return cu.list.prefix[:cu.pos:cu.pos] }

// Buffered returns how many entries beyond the cursor's position are
// already buffered on the list: the number of Next calls that are
// guaranteed not to touch the source.
func (cu *Cursor) Buffered() int { return cu.list.Buffered() - cu.pos }

// StartPrefetch attaches a background prefetch pipeline to the cursor's
// list (see Counted.StartPrefetch); idempotent.
func (cu *Cursor) StartPrefetch(maxDepth int) { cu.list.StartPrefetch(maxDepth) }

// AbortPrefetch closes the list's pipeline without waiting for an
// in-flight batch (see Counted.AbortPrefetch).
func (cu *Cursor) AbortPrefetch() { cu.list.AbortPrefetch() }

// DemandAhead tells the list's pipeline the cursor will need its next n
// entries, so the worker can start fetching before anyone blocks. No-op
// without a pipeline.
func (cu *Cursor) DemandAhead(n int) {
	if cu.list.pipe == nil || cu.list.fenced {
		return
	}
	cu.list.pipe.demand(cu.pos + n)
}

// AwaitAhead blocks until the next n entries past the cursor are
// buffered on the list (clamped to the list end), the list is fenced,
// the pipeline closes, or stop fires; it reports whether the entries are
// buffered. Without a pipeline it stages synchronously (bufferAhead).
// The wait itself never touches the tallies: everything readied here is
// paid for only when the cursor consumes it.
func (cu *Cursor) AwaitAhead(n int, stop <-chan struct{}) bool {
	c := cu.list
	if c.fenced || c.serr != nil {
		return false
	}
	want := cu.pos + n
	if want > c.length {
		want = c.length
	}
	if want <= len(c.prefix) {
		return true
	}
	if c.pipe == nil {
		c.bufferAhead(want)
		return want <= len(c.prefix)
	}
	for want > len(c.prefix) {
		ok := c.pipe.await(want, stop)
		c.prefix = c.pipe.drainInto(c.prefix)
		if !ok {
			// The pipeline closed — benignly (fence, abort) or on a
			// terminal source failure. Either way staging is readahead:
			// the shortfall is reported but nothing is recorded; the
			// failure becomes the list's sticky error only when a
			// consumer demands the missing rank (see bufferAhead).
			break
		}
	}
	return want <= len(c.prefix)
}

// LastGrade returns the grade of the most recent entry this cursor
// consumed: the smallest grade it has seen, since grades arrive in
// descending order. Before any read it returns 1, the neutral upper
// bound. The value is cached at read time, so polling frontiers (as the
// adaptive scheduler does every round) costs no source access.
func (cu *Cursor) LastGrade() float64 { return cu.last }

// Exhausted reports whether the cursor has consumed the whole list, the
// list was fenced, or the list's source failed — in every case a closed
// stream with nothing further to consume.
func (cu *Cursor) Exhausted() bool {
	return cu.list.fenced || cu.list.serr != nil || cu.pos >= cu.list.Len()
}
