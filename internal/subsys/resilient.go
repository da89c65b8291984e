package subsys

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydb/internal/gradedset"
)

// Breaker configures the circuit breaker of a ResilientSource: after
// FailureThreshold consecutive physical failures the breaker opens and
// every access fails fast with *BreakerOpenError (no source call) until
// Cooldown elapses; the breaker then goes half-open, admits up to
// HalfOpenProbes trial accesses, and closes again on the first success
// (or re-opens on the first failure).
type Breaker struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker; ≤ 0 disables it.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before probing;
	// ≤ 0 defaults to one second.
	Cooldown time.Duration
	// HalfOpenProbes bounds the trial accesses admitted while
	// half-open; ≤ 0 defaults to 1.
	HalfOpenProbes int
}

// Policy configures a ResilientSource.
type Policy struct {
	// MaxRetries bounds the retries per fault site (a site is one rank
	// or one probed object; progress inside a batched span resets the
	// budget). ≤ 0 means no retries.
	MaxRetries int
	// BaseBackoff is the first retry's backoff scale; retry n sleeps a
	// uniformly random duration in [0, BaseBackoff·2ⁿ⁻¹) — exponential
	// backoff with full jitter. 0 disables sleeping (test mode).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff scale; ≤ 0 leaves it uncapped (the
	// retry bound caps growth anyway).
	MaxBackoff time.Duration
	// PerAccessTimeout bounds each physical access; an access that
	// overruns it fails with a transient *TimeoutError (and the
	// abandoned call finishes on its own goroutine). 0 disables.
	PerAccessTimeout time.Duration
	// Breaker configures the circuit breaker.
	Breaker Breaker
	// Seed keys the backoff jitter; 0 selects a fixed default.
	Seed uint64
}

// BreakerOpenError is returned (wrapped in the usual *SourceError) when
// an access fails fast because the circuit breaker is open.
type BreakerOpenError struct {
	// Until is when the breaker will next admit a probe.
	Until time.Time
}

// Error implements error.
func (e *BreakerOpenError) Error() string { return "subsys: circuit breaker open" }

// TimeoutError is the transient error injected when a physical access
// overruns the policy's PerAccessTimeout.
type TimeoutError struct {
	// After is the timeout that was exceeded.
	After time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("subsys: source access timed out after %v", e.After)
}

// Transient marks the timeout retryable.
func (e *TimeoutError) Transient() bool { return true }

// RetryError wraps the final cause after a ResilientSource exhausted its
// retry budget at one fault site, recording the total attempts made
// there. Counted lifts Attempts into the SourceError it surfaces.
type RetryError struct {
	// Attempts is the number of physical attempts made at the site.
	Attempts int
	// Err is the last failure.
	Err error
}

// Error implements error.
func (e *RetryError) Error() string {
	return fmt.Sprintf("subsys: giving up after %d attempt(s): %v", e.Attempts, e.Err)
}

// Unwrap exposes the last failure to errors.Is/As.
func (e *RetryError) Unwrap() error { return e.Err }

// transienter is the capability an error implements to declare whether
// retrying can clear it (FaultError, TimeoutError). Errors without the
// capability are assumed transient.
type transienter interface{ Transient() bool }

// retryable reports whether a retry might clear err. Breaker-open
// failures never retry (the point of the breaker is to stop trying).
func retryable(err error) bool {
	var boe *BreakerOpenError
	if errors.As(err, &boe) {
		return false
	}
	var tr transienter
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	return true
}

// ResilienceStats reports what a ResilientSource absorbed.
type ResilienceStats struct {
	// Retries counts retried physical accesses.
	Retries int64
	// Timeouts counts accesses that overran PerAccessTimeout.
	Timeouts int64
	// BreakerTrips counts closed/half-open → open transitions.
	BreakerTrips int64
	// FastFails counts accesses rejected by an open breaker.
	FastFails int64
}

// Add sums two stat sets: how the counters of several sources combine.
func (s ResilienceStats) Add(o ResilienceStats) ResilienceStats {
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.BreakerTrips += o.BreakerTrips
	s.FastFails += o.FastFails
	return s
}

// ResilientSource wraps a (possibly fallible) Source with retries,
// exponential backoff with full jitter, a per-access timeout, and a
// circuit breaker. Transient faults are retried invisibly: the caller
// sees one successful access, and because Counted meters on delivery a
// retried access is still ONE metered access — the Section 5 tallies of
// a run over transient faults are bit-identical to the fault-free run.
// Terminal failures surface through the FallibleSource face as the last
// cause wrapped in *RetryError (when retries were spent) or
// *BreakerOpenError (fail-fast).
//
// The plain Source methods forward to the wrapped source untouched,
// like FaultSource's: the resilience machinery is only on the Try* path,
// which Counted always prefers.
//
// Try* methods are safe for concurrent use when the wrapped source is
// (the breaker and jitter state are internally synchronized).
type ResilientSource struct {
	inner
	pol Policy
	now func() time.Time // test hook

	mu       sync.Mutex
	rng      *rand.Rand
	state    breakerPhase
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probes   int       // trial accesses admitted this half-open period

	retries   atomic.Int64
	timeouts  atomic.Int64
	trips     atomic.Int64
	fastFails atomic.Int64
}

type breakerPhase uint8

const (
	breakerClosed breakerPhase = iota
	breakerOpen
	breakerHalfOpen
)

// Resilient wraps src with the given policy.
func Resilient(src Source, pol Policy) *ResilientSource {
	if pol.Breaker.Cooldown <= 0 {
		pol.Breaker.Cooldown = time.Second
	}
	if pol.Breaker.HalfOpenProbes <= 0 {
		pol.Breaker.HalfOpenProbes = 1
	}
	seed := pol.Seed
	if seed == 0 {
		seed = 0x5eed5eed5eed5eed
	}
	return &ResilientSource{
		inner: wrapping(src),
		pol:   pol,
		now:   time.Now,
		rng:   rand.New(rand.NewSource(int64(seed))),
	}
}

// Stats returns the counters accumulated so far.
func (r *ResilientSource) Stats() ResilienceStats {
	return ResilienceStats{
		Retries:      r.retries.Load(),
		Timeouts:     r.timeouts.Load(),
		BreakerTrips: r.trips.Load(),
		FastFails:    r.fastFails.Load(),
	}
}

// allow consults the breaker before a physical access; a non-nil return
// is the fail-fast error.
func (r *ResilientSource) allow() error {
	if r.pol.Breaker.FailureThreshold <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		until := r.openedAt.Add(r.pol.Breaker.Cooldown)
		if r.now().Before(until) {
			return &BreakerOpenError{Until: until}
		}
		r.state = breakerHalfOpen
		r.probes = 1
		return nil
	default: // half-open
		if r.probes < r.pol.Breaker.HalfOpenProbes {
			r.probes++
			return nil
		}
		return &BreakerOpenError{Until: r.openedAt.Add(r.pol.Breaker.Cooldown)}
	}
}

// onSuccess records a successful physical access with the breaker.
func (r *ResilientSource) onSuccess() {
	if r.pol.Breaker.FailureThreshold <= 0 {
		return
	}
	r.mu.Lock()
	r.failures = 0
	r.state = breakerClosed
	r.mu.Unlock()
}

// onFailure records a failed physical access, tripping the breaker when
// the consecutive-failure threshold is reached (or on any half-open
// failure).
func (r *ResilientSource) onFailure() {
	if r.pol.Breaker.FailureThreshold <= 0 {
		return
	}
	r.mu.Lock()
	switch r.state {
	case breakerHalfOpen:
		r.state = breakerOpen
		r.openedAt = r.now()
		r.trips.Add(1)
	case breakerClosed:
		r.failures++
		if r.failures >= r.pol.Breaker.FailureThreshold {
			r.state = breakerOpen
			r.openedAt = r.now()
			r.failures = 0
			r.trips.Add(1)
		}
	}
	r.mu.Unlock()
}

// retryAfterHint extracts a server-directed pacing advice from err via
// the optional RetryAfter capability (wire.TransportError implements it
// for 429 rejections carrying Retry-After). Zero means no advice.
func retryAfterHint(err error) time.Duration {
	var ra interface{ RetryAfter() time.Duration }
	if errors.As(err, &ra) {
		if d := ra.RetryAfter(); d > 0 {
			return d
		}
	}
	return 0
}

// pause sleeps before retry number attempt (1-based): the failure's own
// RetryAfter advice verbatim when the server gave one (a shedding
// server knows its refill schedule better than our jitter does — the
// hint deliberately overrides MaxBackoff), the exponential backoff
// schedule otherwise.
func (r *ResilientSource) pause(attempt int, err error) {
	if d := retryAfterHint(err); d > 0 {
		time.Sleep(d)
		return
	}
	r.backoff(attempt)
}

// backoff sleeps before retry number attempt (1-based): exponential
// growth with full jitter, capped by MaxBackoff.
func (r *ResilientSource) backoff(attempt int) {
	base := r.pol.BaseBackoff
	if base <= 0 {
		return
	}
	if attempt > 24 {
		attempt = 24 // cap the shift; MaxBackoff usually kicks in first
	}
	d := base << uint(attempt-1)
	if r.pol.MaxBackoff > 0 && d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	time.Sleep(time.Duration(f * float64(d)))
}

// tryResult carries one physical attempt's outcome across the timeout
// boundary (results travel on the channel, never through captured
// variables, so an abandoned attempt cannot race its replacement).
type tryResult struct {
	span []gradedset.Entry
	g    float64
	gs   []float64
	err  error
}

// call runs one physical attempt under the per-access timeout. On
// timeout the attempt's goroutine finishes (and is discarded) on its
// own; the buffered channel lets it exit regardless.
func (r *ResilientSource) call(f func() tryResult) tryResult {
	if r.pol.PerAccessTimeout <= 0 {
		return f()
	}
	done := make(chan tryResult, 1)
	go func() { done <- f() }()
	timer := time.NewTimer(r.pol.PerAccessTimeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res
	case <-timer.C:
		r.timeouts.Add(1)
		return tryResult{err: &TimeoutError{After: r.pol.PerAccessTimeout}}
	}
}

// TryEntry implements FallibleSource.
func (r *ResilientSource) TryEntry(rank int) (gradedset.Entry, error) {
	return oneEntry(r.TryEntries(rank, rank+1))
}

// TryEntries implements FallibleSource with partial-progress retries:
// partial spans are accumulated and advance the request, and progress
// resets the per-site retry budget, so a span crossing many transient
// fault sites needs only MaxRetries per site, not per span.
func (r *ResilientSource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	var out []gradedset.Entry
	pos := lo
	attempts := 0 // failed attempts at the current site
	for pos < hi {
		if berr := r.allow(); berr != nil {
			r.fastFails.Add(1)
			return out, berr
		}
		p := pos
		res := r.call(func() tryResult {
			span, err := r.in.Try.TryEntries(p, hi)
			return tryResult{span: span, err: err}
		})
		if len(res.span) > 0 {
			out = append(out, res.span...)
			pos += len(res.span)
			attempts = 0
		}
		if res.err == nil {
			r.onSuccess()
			if pos < hi && len(res.span) == 0 {
				// No progress and no error: a broken sorted contract, not
				// a fault a retry could absorb.
				return out, errShortSpan
			}
			continue
		}
		attempts++
		if err := r.failed(attempts, res.err); err != nil {
			return out, err
		}
	}
	return out, nil
}

// TryGrade implements FallibleSource with retries.
func (r *ResilientSource) TryGrade(obj int) (float64, error) {
	attempts := 0
	for {
		if berr := r.allow(); berr != nil {
			r.fastFails.Add(1)
			return 0, berr
		}
		res := r.call(func() tryResult {
			g, err := r.in.Try.TryGrade(obj)
			return tryResult{g: g, err: err}
		})
		if res.err == nil {
			r.onSuccess()
			return res.g, nil
		}
		attempts++
		if err := r.failed(attempts, res.err); err != nil {
			return 0, err
		}
	}
}

// TryGrades implements BatchGrader with partial-progress retries,
// exactly as TryEntries treats spans: the grades obtained advance the
// request and reset the per-site retry budget, and only the undelivered
// remainder is retried. Each attempt fills a buffer of its own, so one
// abandoned by the timeout cannot race its replacement.
func (r *ResilientSource) TryGrades(objs []int, out []float64) (int, error) {
	pos, attempts := 0, 0
	for pos < len(objs) {
		if berr := r.allow(); berr != nil {
			r.fastFails.Add(1)
			return pos, berr
		}
		rest := objs[pos:]
		res := r.call(func() tryResult {
			gs := make([]float64, len(rest))
			n, err := r.in.Batch.TryGrades(rest, gs)
			return tryResult{gs: gs[:n], err: err}
		})
		if len(res.gs) > 0 {
			pos += copy(out[pos:], res.gs)
			attempts = 0
		}
		if res.err == nil {
			r.onSuccess()
			if len(res.gs) == 0 {
				return pos, nil // short without error: do not spin
			}
			continue
		}
		attempts++
		if err := r.failed(attempts, res.err); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// failed books the attempts-th consecutive failed attempt at one site:
// it returns the terminal error when the failure is permanent or the
// retry budget is spent, and otherwise sleeps the backoff and returns
// nil for the caller to try again.
func (r *ResilientSource) failed(attempts int, err error) error {
	r.onFailure()
	if !retryable(err) || attempts > r.pol.MaxRetries {
		if attempts > 1 {
			return &RetryError{Attempts: attempts, Err: err}
		}
		return err
	}
	r.retries.Add(1)
	r.pause(attempts, err)
	return nil
}

// ResilientSubsystem wraps a subsystem so every source it produces is
// wrapped in the resilience layer (see Resilient).
type ResilientSubsystem struct {
	wrapped

	mu   sync.Mutex
	srcs []*ResilientSource
}

// WithResilience wraps sub with the given resilience policy. Each
// produced source derives its own jitter seed from the policy's, unless
// that is 0 (the fixed default).
func WithResilience(sub Subsystem, pol Policy) *ResilientSubsystem {
	w := &ResilientSubsystem{}
	w.wrapped = wrapped{sub, func(target string, src Source) Source {
		p := pol
		if p.Seed != 0 {
			p.Seed = w.listSeed(pol.Seed, target)
		}
		rs := Resilient(src, p)
		w.mu.Lock()
		w.srcs = append(w.srcs, rs)
		w.mu.Unlock()
		return rs
	}}
	return w
}

// Stats sums the resilience counters across every source this subsystem
// has produced.
func (w *ResilientSubsystem) Stats() ResilienceStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total ResilienceStats
	for _, s := range w.srcs {
		total = total.Add(s.Stats())
	}
	return total
}
