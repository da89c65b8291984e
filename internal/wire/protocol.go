package wire

import (
	"fmt"

	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/middleware"
)

// Meta is the server's self-description, served at GET /v1/meta. Every
// list shares one object universe of N objects; Dense reports whether
// that universe is exactly {0,…,N−1} for every list, so clients can
// forward the flat-array fast path (subsys.UniverseHinter).
type Meta struct {
	// N is the universe size shared by every list.
	N int `json:"n"`
	// Dense reports a dense {0,…,N−1} universe on every list.
	Dense bool `json:"dense"`
	// Lists names the sorted lists the server exposes, in sorted order.
	Lists []string `json:"lists"`
	// Page is the server's per-response cap on Entries spans: a request
	// for more ranks than Page returns the first Page of them, and the
	// client continues from where the span ended. It also caps the
	// objects of one /v1/grades batch; a larger batch is rejected.
	Page int `json:"page"`
	// Grades reports that the server mounts POST /v1/grades; a client
	// dialled to a server that does not say so keeps to /v1/grade.
	Grades bool `json:"grades,omitempty"`
	// Engine reports whether the server also mounts the query endpoints
	// (POST /v1/query, GET /v1/results).
	Engine bool `json:"engine,omitempty"`
}

// Fault is the error envelope used everywhere on the wire: inside a 200
// entries/grade response when the backing source itself failed
// (application-level fault alongside a possibly partial span), and as
// the whole body of a non-2xx response (protocol-level failure).
type Fault struct {
	// Message describes the failure.
	Message string `json:"error"`
	// Transient reports whether retrying the same request may succeed;
	// clients feed it to the resilience layer's retry decision.
	Transient bool `json:"transient"`
	// Cost, when present on a query error, is the partial Section 5
	// spend of the evaluation that failed (budget stops, cancellation).
	Cost *Cost `json:"cost,omitempty"`
	// RetryAfterMS, when present on an overload rejection (HTTP 429),
	// is the server's pacing advice in milliseconds: how long the
	// scheduler expects the tenant's token bucket or queue to need
	// before this request could be admitted. Clients honor it over
	// their own backoff schedule.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// EntriesRequest asks for sorted access: the entries at ranks [Lo, Hi)
// of the named list. POST /v1/entries.
type EntriesRequest struct {
	List string `json:"list"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
}

// EntriesResponse carries the delivered span as parallel arrays
// (Objects[i] graded Grades[i] at rank Lo+i). The span may be shorter
// than requested — because the server pages long spans (continue from
// Lo+len) or because the backing source failed mid-span (Err is then
// set and the span is the longest prefix obtained, honoring the
// subsys.FallibleSource partial-span contract).
type EntriesResponse struct {
	Objects []int     `json:"objects"`
	Grades  []float64 `json:"grades"`
	Err     *Fault    `json:"err,omitempty"`
}

// entries converts the parallel arrays to graded entries, rejecting
// what only a broken or hostile server sends: arrays of different
// lengths, more entries than the max asked for, grades outside [0, 1]
// (NaN and infinities never survive JSON decoding), grades that increase
// along the span — sorted order is what A₀'s stopping rule rests on — and,
// when universe > 0 (the server declared the dense universe {0,…,N−1}),
// an object outside it.
func (r *EntriesResponse) entries(max, universe int) ([]gradedset.Entry, error) {
	if len(r.Objects) != len(r.Grades) || len(r.Objects) > max {
		return nil, &TransportError{Op: "entries", Msg: fmt.Sprintf(
			"malformed span: %d objects, %d grades, %d requested", len(r.Objects), len(r.Grades), max)}
	}
	if err := checkGrades("entries", r.Grades); err != nil {
		return nil, err
	}
	out := make([]gradedset.Entry, len(r.Objects))
	for i, obj := range r.Objects {
		if i > 0 && r.Grades[i] > r.Grades[i-1] {
			return nil, &TransportError{Op: "entries", Msg: fmt.Sprintf(
				"unsorted span: grade %v at position %d follows %v", r.Grades[i], i, r.Grades[i-1])}
		}
		if universe > 0 && (obj < 0 || obj >= universe) {
			return nil, &TransportError{Op: "entries", Msg: fmt.Sprintf(
				"object %d at position %d is outside the dense universe of %d", obj, i, universe)}
		}
		out[i] = gradedset.Entry{Object: obj, Grade: r.Grades[i]}
	}
	return out, nil
}

// checkGrades returns a permanent *TransportError for the first grade
// outside [0, 1]: the client never hands such a value to the engine.
func checkGrades(op string, grades []float64) error {
	for i, g := range grades {
		if !gradedset.ValidGrade(g) {
			return &TransportError{Op: op, Msg: fmt.Sprintf("grade %v at position %d is outside [0, 1]", g, i)}
		}
	}
	return nil
}

// GradeRequest asks for random access: the grade of Object in the named
// list. POST /v1/grade.
type GradeRequest struct {
	List   string `json:"list"`
	Object int    `json:"object"`
}

// GradeResponse carries the grade, or the backing source's failure.
type GradeResponse struct {
	Grade float64 `json:"grade"`
	Err   *Fault  `json:"err,omitempty"`
}

// GradesRequest asks for batched random access: the grades of Objects,
// at most Meta.Page of them, in the named list. POST /v1/grades.
type GradesRequest struct {
	List    string `json:"list"`
	Objects []int  `json:"objects"`
}

// GradesResponse carries Grades[i] for Objects[i]. It is shorter than
// the request only when the backing source failed mid-batch: Err is then
// set, Grades is the prefix obtained, and the failure belongs to
// Objects[len(Grades)] (the subsys.BatchGrader contract).
type GradesResponse struct {
	Grades []float64 `json:"grades"`
	Err    *Fault    `json:"err,omitempty"`
}

// QueryRequest is one engine evaluation: the JSON body of POST
// /v1/query and, under the same names, the URL form of GET /v1/results
// (params.go). It is the engine's own request type — the fields, their
// JSON names and the zero-value rule are documented there, once.
type QueryRequest = middleware.Request

// Result is one answer row: the JSON form of core.Result, and the
// NDJSON row format of the GET /v1/results stream.
type Result struct {
	Object int     `json:"object"`
	Grade  float64 `json:"grade"`
}

// Cost is the JSON form of the Section 5 tallies.
type Cost struct {
	Sorted int `json:"sorted"`
	Random int `json:"random"`
}

func costOf(c cost.Cost) Cost { return Cost{Sorted: c.Sorted, Random: c.Random} }
func costsOf(cs []cost.Cost) []Cost {
	if cs == nil {
		return nil
	}
	out := make([]Cost, len(cs))
	for i, c := range cs {
		out[i] = costOf(c)
	}
	return out
}

// PrefetchStats is the JSON form of subsys.PipelineStats, field for
// field (ResponseOf converts one into the other).
type PrefetchStats struct {
	MaxDepth int `json:"max_depth"`
	Stalls   int `json:"stalls"`
	Batches  int `json:"batches"`
	Fetched  int `json:"fetched"`
}

// CacheInfo is the JSON form of middleware.CacheInfo: how the engine's
// result cache handled the request. Absent when the server's engine has
// no cache or the request was not cacheable.
type CacheInfo struct {
	// Hit reports whether the answer was served from the cache.
	Hit bool `json:"hit"`
	// Repaired reports a miss answered by repairing a cached answer that
	// raised grades had left stale; Cost is then what the repair read.
	Repaired bool `json:"repaired,omitempty"`
	// Epoch is the source-data version fingerprint the answer reflects.
	Epoch uint64 `json:"epoch"`
	// SavedCost is, on a hit, the Section 5 spend the cache saved.
	SavedCost *Cost `json:"saved_cost,omitempty"`
}

// DegradedList records one list a degraded evaluation dropped.
type DegradedList struct {
	Attr     string `json:"attr"`
	Target   string `json:"target"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
	Cost     Cost   `json:"cost"`
}

// QueryResponse is the outcome of POST /v1/query: the middleware Report
// in wire form.
type QueryResponse struct {
	Results []Result `json:"results"`
	Cost    Cost     `json:"cost"`
	// PerList breaks the cost down by atom, in plan order.
	PerList []Cost `json:"per_list,omitempty"`
	// Algorithm and Reason describe the plan that produced the results.
	Algorithm string `json:"algorithm"`
	Reason    string `json:"reason"`
	// Prefetch reports the pipeline stats when the request pipelined.
	Prefetch *PrefetchStats `json:"prefetch,omitempty"`
	// Degraded lists what a degraded evaluation dropped, in drop order.
	Degraded []DegradedList `json:"degraded,omitempty"`
	// Cache reports how the engine's result cache handled the request
	// (absent without a cache or for uncacheable requests).
	Cache *CacheInfo `json:"cache,omitempty"`
	// ElapsedNS is the server-side evaluation wall-clock in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
}
