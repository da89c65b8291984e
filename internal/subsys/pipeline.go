package subsys

import (
	"sync"

	"fuzzydb/internal/gradedset"
)

// DefaultPrefetchCap bounds the adaptive readahead depth of a prefetch
// pipeline: deep enough to amortize per-call latency over hundreds of
// ranks, shallow enough that an early-stopping query never drags a large
// unread span out of a slow subsystem.
const DefaultPrefetchCap = 512

// PipelineStats reports what a list's background prefetch pipeline did:
// how deep the adaptive readahead grew, how often the consumer caught up
// with it (stalls after the first are what drive the depth doubling), how
// many physical batched sorted calls it issued against the source and how
// many ranks they brought back. Counters reflect batches that completed;
// a batch still in flight when the pipeline shuts down (shutdown never
// waits on the source) is not counted.
type PipelineStats struct {
	// MaxDepth is the largest batch depth any single refill used.
	MaxDepth int
	// Stalls counts the times a consumer had to wait for the pipeline.
	Stalls int
	// Batches counts the physical Entries calls issued to the source.
	Batches int
	// Fetched counts the ranks those calls read. The Section 5 sorted
	// tally counts the ranks the algorithm consumed, so Fetched minus
	// that tally is the readahead the query never used.
	Fetched int
}

// Add merges two stat sets: counters sum, MaxDepth takes the maximum.
func (s PipelineStats) Add(o PipelineStats) PipelineStats {
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.Stalls += o.Stalls
	s.Batches += o.Batches
	s.Fetched += o.Fetched
	return s
}

// pipeline is the background prefetcher of one Counted list: a single
// worker goroutine issues batched sorted accesses (src.Entries) ahead of
// the algorithm's consumption and parks the results in a spool the
// consumer absorbs into the list's uncounted prefix buffer. Prefetched
// ranks are NOT delivered — the Section 5 sorted tally and the grade
// memo advance only when the algorithm consumes a rank — so the pipeline
// is pure transport: it changes wall-clock, never cost.
//
// The worker keeps the window [need, need+depth) past the consumer's
// demand watermark fetched, one batch of depth ranks at a time. One
// adaptive policy chooses the depth, by five rules; the caller sets only
// its cap, maxDepth:
//
//  1. The expectation. A consumer that knows how deep it will read — the
//     A₀ family, from Theorem 5.3's closed form — says so before the
//     first access (Counted.Expect).
//  2. The opening depth is that expectation (less what the list already
//     buffers), clamped to [1, maxDepth]: without one the window opens at
//     1 and has to find the depth by the doubling below.
//  3. The depth doubles, up to maxDepth, every time a refill completes
//     while the consumer is waiting (a stall: the window is too shallow
//     for the source's latency) and halves when a refill completes that
//     the consumer has not even asked for yet (the algorithm fell behind;
//     deep readahead would only be waste if the query stops early) —
//     except on the first batch: nothing can be buffered before it lands,
//     so the consumer's wait for it says nothing about the depth.
//  4. One batch covers the demand already stated: a consumer that asks
//     for its next n ranks up front (B₀'s top-k prefixes, the naive
//     drain, a page) gets min(n, maxDepth) of them per call instead of
//     climbing 1, 2, 4, … toward a number it announced.
//  5. No slivers: with the demand met and less than half a depth of room
//     left in the window, the worker parks until the demand grows
//     instead of issuing a call for a handful of ranks (unless they are
//     the list's last).
//
// Under every rule the worker never runs more than depth ≤ maxDepth ranks
// past the demand watermark, so a fenced, budget-stopped or abandoned
// evaluation strands at most one batch of at most maxDepth ranks.
//
// Exactly one goroutine consumes (the one driving the evaluation); the
// worker is the only other toucher. All shared state is guarded by mu;
// the two buffered-by-one channels carry wakeups, not data.
type pipeline struct {
	src    Source
	fs     FallibleSource // non-nil when src exposes the fallible face
	length int

	mu       sync.Mutex
	need     int               // consumer demand watermark (absolute rank)
	fetched  int               // ranks fetched so far (spool covers [absorbed, fetched))
	absorbed int               // ranks already drained to the Counted's prefix
	spool    []gradedset.Entry // fetched, not yet absorbed
	depth    int               // current batch depth
	maxDepth int               // cap on depth and on any one batch
	waiting  bool              // consumer is blocked in await right now
	closed   bool
	err      error // terminal source failure; set once, before closed
	stats    PipelineStats

	kick    chan struct{} // consumer -> worker: demand grew / close
	updates chan struct{} // worker -> consumer: fetched advanced / close
	done    chan struct{} // worker exited
}

// newPipeline starts the worker for src, resuming after the `buffered`
// ranks the list already holds, its window opening at the rank the
// consumer expects to reach (expect; 0 when it stated nothing, which
// opens at 1); maxDepth <= 0 selects DefaultPrefetchCap.
func newPipeline(src Source, fs FallibleSource, length, buffered, maxDepth, expect int) *pipeline {
	if maxDepth <= 0 {
		maxDepth = DefaultPrefetchCap
	}
	p := &pipeline{
		src:      src,
		fs:       fs,
		length:   length,
		need:     buffered,
		fetched:  buffered,
		absorbed: buffered,
		depth:    min(max(expect-buffered, 1), maxDepth),
		maxDepth: maxDepth,
		kick:     make(chan struct{}, 1),
		updates:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go p.run()
	return p
}

// notify posts a non-blocking wakeup token; a token already pending is
// enough, since both loops re-check state after waking.
func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// run is the worker loop: fetch batches of the current depth (or of the
// stated demand, rule 4) until the demand-plus-depth target is covered,
// park until kicked, repeat.
func (p *pipeline) run() {
	defer close(p.done)
	// Nothing is worth fetching before the consumer's first demand (or a
	// close): what it asks for decides the first batch (rule 4).
	<-p.kick
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		target := min(p.need+p.depth, p.length)
		lo, d := p.fetched, p.depth
		if short := p.need - lo; short > d {
			d = min(short, p.maxDepth)
		}
		hi := min(lo+d, target)
		sliver := lo >= p.need && 2*(hi-lo) < p.depth && hi < p.length
		if lo >= target || sliver {
			p.mu.Unlock()
			<-p.kick
			continue
		}
		first := p.stats.Batches == 0
		p.mu.Unlock()

		// The slow call, outside the lock: one batched sorted access.
		var span []gradedset.Entry
		var ferr error
		if p.fs != nil {
			span, ferr = p.fs.TryEntries(lo, hi)
		} else {
			span = p.src.Entries(lo, hi)
		}

		p.mu.Lock()
		if p.closed {
			// Closed mid-flight: discard the span; fetched stays put, so
			// the spool and the watermark remain consistent.
			p.mu.Unlock()
			return
		}
		if len(span) < hi-lo {
			// The batch came back short: a terminal source failure inside
			// it, or — with no error — a broken sorted contract, which is
			// a failure too (errShortSpan). Absorb the partial span (the
			// consumer still drains it; the failure pins to the first
			// missing rank), record the cause and shut down: fetched
			// advances only by what arrived, so await never over-promises,
			// and only a consumer's unmet demand turns the cause into the
			// list's error. An error alongside a COMPLETE span is not a
			// failure of this batch — a source that scans beyond the
			// request internally (a shard view's chunked re-ranking) hit a
			// fault past it — and is dropped: the site re-fires if a later
			// batch actually needs the faulty rank.
			if ferr == nil {
				ferr = errShortSpan
			}
			p.spool = append(p.spool, span...)
			p.fetched = lo + len(span)
			p.stats.Batches++
			p.stats.Fetched += len(span)
			p.err = ferr
			p.closed = true
			p.mu.Unlock()
			notify(p.updates)
			return
		}
		p.spool = append(p.spool, span...)
		p.fetched = hi
		p.stats.Batches++
		p.stats.Fetched += len(span)
		if d > p.stats.MaxDepth {
			p.stats.MaxDepth = d
		}
		if !first {
			if p.waiting {
				// The consumer is stalled on us: the batch was too small
				// for the source's latency. Double it.
				if p.depth < p.maxDepth {
					p.depth *= 2
					if p.depth > p.maxDepth {
						p.depth = p.maxDepth
					}
				}
			} else if p.need <= lo && p.depth > 1 {
				// The consumer has not demanded even the start of this
				// batch: it fell behind. Shrink the speculation.
				p.depth /= 2
			}
		}
		p.mu.Unlock()
		notify(p.updates)
	}
}

// demand raises the consumer's watermark to n ranks (clamped to the list
// length) and wakes the worker. Demands are monotone.
func (p *pipeline) demand(n int) {
	if n > p.length {
		n = p.length
	}
	p.mu.Lock()
	if n > p.need {
		p.need = n
		notify(p.kick)
	}
	p.mu.Unlock()
}

// await blocks until at least n ranks are fetched, the pipeline closes,
// or stop fires; it reports whether the n ranks are available. A wait
// counts as one stall (and, via the waiting flag, drives the worker's
// depth doubling after the first batch). stop may be nil.
func (p *pipeline) await(n int, stop <-chan struct{}) bool {
	if n > p.length {
		n = p.length
	}
	p.mu.Lock()
	if n > p.need {
		p.need = n
		notify(p.kick)
	}
	if p.fetched >= n {
		p.mu.Unlock()
		return true
	}
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.stats.Stalls++
	p.waiting = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.waiting = false
		p.mu.Unlock()
	}()
	for {
		select {
		case <-p.updates:
		case <-stop:
			return false
		}
		p.mu.Lock()
		if p.fetched >= n {
			p.mu.Unlock()
			return true
		}
		if p.closed {
			p.mu.Unlock()
			return false
		}
		p.mu.Unlock()
	}
}

// drainInto appends every fetched-but-unabsorbed entry to dst and marks
// it absorbed. Non-blocking; the entries are copies, safe to keep.
func (p *pipeline) drainInto(dst []gradedset.Entry) []gradedset.Entry {
	p.mu.Lock()
	if len(p.spool) > 0 {
		dst = append(dst, p.spool...)
		p.spool = p.spool[:0]
		p.absorbed = p.fetched
	}
	p.mu.Unlock()
	return dst
}

// close stops the worker: no further source accesses are issued once the
// in-flight batch (if any) returns. Idempotent, non-blocking, safe from
// any goroutine. Already-fetched entries remain drainable.
func (p *pipeline) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	notify(p.kick)
	notify(p.updates)
}

// join waits for the worker to exit; call close first. A wedged source
// call wedges join too — abandoning callers skip it.
func (p *pipeline) join() { <-p.done }

// failure returns the terminal source error the worker hit, if any. Set
// at most once, strictly before the pipeline closes, so a consumer that
// observed the close (await returned false) reads a settled value.
func (p *pipeline) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// snapshot returns the stats so far.
func (p *pipeline) snapshot() PipelineStats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	return s
}
