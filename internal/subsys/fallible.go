package subsys

import (
	"errors"
	"fmt"

	"fuzzydb/internal/gradedset"
)

// FallibleSource is the optional failure-aware face of a Source: a
// subsystem whose accesses can fail (a remote engine, a flaky transport)
// implements the Try* variants alongside the plain interface. Counted
// detects the capability at wrap time and routes every physical access
// through it; the plain methods exist only to satisfy Source for
// consumers that never look, and by convention they forward to the
// underlying data without surfacing faults. Every wrapper in this
// package, shard views included, always exposes Try* — over a parent
// that cannot fail they simply never fail (see FacesOf).
//
// Contract for the Try* methods: on a nil error the result is complete
// (TryEntries returns exactly hi−lo entries). On a non-nil error
// TryEntries may return a partial span — the longest prefix of [lo, hi)
// it obtained before failing — which the middleware absorbs, so the
// failure is pinned to the first undelivered rank regardless of how the
// caller batched its requests. A source that internally reads beyond
// the request (a shard view's chunked re-ranking) may even return a
// complete span alongside an error; the middleware treats that as
// success, since the fault lies past the demanded ranks and will
// re-fire on the first request that actually needs it.
type FallibleSource interface {
	Source
	// TryEntry performs one fallible sorted access.
	TryEntry(rank int) (gradedset.Entry, error)
	// TryEntries performs fallible batched sorted access for ranks
	// [lo, hi). On error the returned span holds the ranks obtained
	// before the failure (possibly none).
	TryEntries(lo, hi int) ([]gradedset.Entry, error)
	// TryGrade performs one fallible random access.
	TryGrade(obj int) (float64, error)
}

// BatchGrader is the optional batched random-access capability: the
// random twin of TryEntries, for sources where a call costs a round
// trip. It is a capability, not part of Source, so existing sources
// and wrappers stay valid; a wrapper whose parent lacks it reports
// MaxGrades 0 and its TryGrades must not be called. Every gather reads
// through it — Counted.Grades, the column routine of the serial
// executor, in MaxGrades chunks; the pipelined executor the same chunks
// in parallel — and payment stays per delivered grade, so
// batching never moves a Section 5 tally.
type BatchGrader interface {
	// TryGrades performs up to MaxGrades random accesses in one call:
	// out[i] = grade of objs[i]. n is the number of grades obtained
	// before err — the partial-prefix contract of TryEntries: out[:n] is
	// valid and a non-nil err is pinned to objs[n].
	TryGrades(objs []int, out []float64) (n int, err error)
	// MaxGrades is the largest batch one call may carry; below 1 the
	// capability is absent.
	MaxGrades() int
}

// SourceError is the typed failure the middleware surfaces when a
// list's source fails: which list, where in which access mode, how many
// attempts were made, and the underlying cause. It propagates unchanged
// through every executor up to the engine, so callers select on it with
// errors.As.
type SourceError struct {
	// List is the index of the failed list within the evaluation.
	List int
	// Rank locates the failure: the sorted rank of the first
	// undelivered entry when Random is false, the object id of the
	// failed probe when Random is true.
	Rank int
	// Random reports which access mode failed.
	Random bool
	// Attempts is the total number of physical attempts made at the
	// failing site (≥ 1; > 1 when a Resilient wrapper retried).
	Attempts int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *SourceError) Error() string {
	if e.Random {
		return fmt.Sprintf("subsys: list %d: random access failed at object %d after %d attempt(s): %v",
			e.List, e.Rank, e.Attempts, e.Err)
	}
	return fmt.Sprintf("subsys: list %d: sorted access failed at rank %d after %d attempt(s): %v",
		e.List, e.Rank, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SourceError) Unwrap() error { return e.Err }

// newSourceError builds the sticky typed error for one list failure,
// lifting the attempt count out of a RetryError cause when present.
func newSourceError(list, rank int, random bool, err error) *SourceError {
	attempts := 1
	var re *RetryError
	if errors.As(err, &re) {
		attempts = re.Attempts
	}
	return &SourceError{List: list, Rank: rank, Random: random, Attempts: attempts, Err: err}
}
