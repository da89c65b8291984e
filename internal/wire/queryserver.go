package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"fuzzydb/internal/core"
	"fuzzydb/internal/middleware"
	"fuzzydb/internal/sched"
	"fuzzydb/internal/subsys"
)

// QueryServer exposes a middleware engine over the wire: one-shot
// evaluation at POST /v1/query and the streaming Results iterator at
// GET /v1/results as an NDJSON cursor. Both evaluate under the request
// context, so a client disconnect (or request cancellation) propagates
// into the engine — in-flight evaluation stops at its next cancellation
// poll, budget reservations settle, and pooled state is released.
type QueryServer struct {
	eng    *middleware.Middleware
	active atomic.Int64
	mux    *http.ServeMux
}

// NewQueryServer builds a query server over the engine.
func NewQueryServer(eng *middleware.Middleware) *QueryServer {
	s := &QueryServer{eng: eng}
	s.mux = http.NewServeMux()
	s.Register(s.mux)
	return s
}

// Register mounts the query endpoints on mux, so callers can combine
// them with a SourceServer's (cmd/fuzzyserve does).
func (s *QueryServer) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/results", s.handleResults)
}

// ServeHTTP implements http.Handler over the server's own mux.
func (s *QueryServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Active reports how many query evaluations (one-shot or streaming) are
// in flight right now. Exposed so tests can pin that client disconnects
// drain the server promptly.
func (s *QueryServer) Active() int64 { return s.active.Load() }

// TenantHeader is the out-of-band form of QueryRequest.Tenant: requests
// that cannot carry the body field (or proxies injecting identity) name
// the admission tenant here. The body field wins when both are set.
const TenantHeader = "X-Fuzzydb-Tenant"

// decode reads the request of either endpoint — the JSON body of a POST,
// the URL form of a GET — onto a zero request, so a name the request
// leaves out keeps the engine default, and checks the outcome at the
// boundary: a malformed, unknown or negative value, or a name that is no
// field, is a 400 naming it, never a silent default. ok is false when
// the fault has been written.
func (s *QueryServer) decode(w http.ResponseWriter, r *http.Request) (req QueryRequest, ok bool) {
	var err error
	if r.Method == http.MethodGet {
		err = decodeParams(r.URL.Query(), &req)
	} else if !decodeRequest(w, r, &req) {
		return req, false
	}
	if err == nil {
		err = checkRequest(&req)
	}
	if err != nil {
		writeFault(w, http.StatusBadRequest, &Fault{Message: err.Error()})
		return req, false
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	return req, true
}

func (s *QueryServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	start := time.Now()
	rep, err := s.eng.Do(r.Context(), req)
	if err != nil {
		status, f := queryFault(err)
		if rep != nil {
			c := costOf(rep.Cost)
			f.Cost = &c
		}
		writeFault(w, status, f)
		return
	}
	writeJSON(w, http.StatusOK, ResponseOf(rep, time.Since(start)))
}

// ResponseOf lowers a middleware report onto the wire form: what POST
// /v1/query answers with, and the shape fuzzyquery prints from whether
// the evaluation was local or remote.
func ResponseOf(rep *middleware.Report, elapsed time.Duration) QueryResponse {
	resp := QueryResponse{
		Results:   make([]Result, 0, len(rep.Results)),
		Cost:      costOf(rep.Cost),
		PerList:   costsOf(rep.PerList),
		ElapsedNS: elapsed.Nanoseconds(),
	}
	for _, r := range rep.Results {
		resp.Results = append(resp.Results, Result{Object: r.Object, Grade: r.Grade})
	}
	if rep.Plan != nil {
		if rep.Plan.Algorithm != nil {
			resp.Algorithm = rep.Plan.Algorithm.Name()
		}
		resp.Reason = rep.Plan.Reason
	}
	if rep.Prefetch != nil {
		p := PrefetchStats(*rep.Prefetch)
		resp.Prefetch = &p
	}
	if rep.Cache != nil {
		ci := &CacheInfo{Hit: rep.Cache.Hit, Repaired: rep.Cache.Repaired, Epoch: rep.Cache.Epoch}
		if rep.Cache.Hit {
			c := costOf(rep.Cache.SavedCost)
			ci.SavedCost = &c
		}
		resp.Cache = ci
	}
	for _, d := range rep.Degraded {
		dl := DegradedList{Attr: d.Attr, Target: d.Target, Attempts: d.Attempts, Cost: costOf(d.Cost)}
		if d.Err != nil {
			dl.Error = d.Err.Error()
		}
		resp.Degraded = append(resp.Degraded, dl)
	}
	return resp
}

// queryFault classifies an engine error onto a status code and wire
// envelope. Source failures, timeouts, and admission sheds are
// transient (a retry may hit a recovered backend or a refilled
// bucket); planning and budget errors are not. An admission shed
// (typed *sched.OverloadError) maps to 429 and carries the scheduler's
// RetryAfter advice so resilient clients pace themselves instead of
// re-stampeding a shedding server.
func queryFault(err error) (int, *Fault) {
	f := &Fault{Message: err.Error()}
	var se *subsys.SourceError
	var oe *sched.OverloadError
	switch {
	case errors.As(err, &oe):
		f.Transient = true
		f.RetryAfterMS = int64(oe.RetryAfter / time.Millisecond)
		if f.RetryAfterMS < 1 {
			f.RetryAfterMS = 1
		}
		return http.StatusTooManyRequests, f
	case errors.Is(err, core.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity, f
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		f.Transient = true
		return http.StatusGatewayTimeout, f
	case errors.As(err, &se):
		f.Transient = true
		var tr interface{ Transient() bool }
		if errors.As(err, &tr) {
			f.Transient = tr.Transient()
		}
		return http.StatusBadGateway, f
	default:
		return http.StatusBadRequest, f
	}
}

// handleResults streams the engine's Results iterator as NDJSON: one
// Result row per line, in descending grade order, flushed per row so a
// slow consumer sees answers as they are computed. A mid-stream engine
// error terminates the stream with one Fault row. The evaluation runs
// under the request context: when the client disconnects, the iterator
// is cancelled at its next poll and the underlying paginator releases.
func (s *QueryServer) handleResults(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	// The status line is deferred until the first row: an error before
	// anything streamed (a parse failure, an admission shed) gets its
	// real status code — 429 with a Retry-After header for a shed —
	// where an error after rows have flowed can only terminate the
	// stream with one Fault row.
	w.Header().Set("Content-Type", "application/x-ndjson")
	streaming := false
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for res, err := range s.eng.Stream(r.Context(), req) {
		if err != nil {
			status, f := queryFault(err)
			if !streaming {
				writeFault(w, status, f)
				return
			}
			_ = enc.Encode(f)
			return
		}
		if !streaming {
			w.WriteHeader(http.StatusOK)
			streaming = true
		}
		if encErr := enc.Encode(Result{Object: res.Object, Grade: res.Grade}); encErr != nil {
			// The client went away; the deferred iterator teardown
			// releases the paginator.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !streaming {
		// An empty result set is still a well-formed empty stream.
		w.WriteHeader(http.StatusOK)
	}
}
