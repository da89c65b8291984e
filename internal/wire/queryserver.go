package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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
	eng      *middleware.Middleware
	defaults []middleware.QueryOption
	active   atomic.Int64
	mux      *http.ServeMux
}

// NewQueryServer builds a query server over the engine. defaults are
// request options applied to every evaluation before the request's own
// (so a request field that maps to the same option overrides the
// server default) — the hook for server-side execution policy like
// a default shard plan or work stealing.
func NewQueryServer(eng *middleware.Middleware, defaults ...middleware.QueryOption) *QueryServer {
	s := &QueryServer{eng: eng, defaults: defaults}
	s.mux = http.NewServeMux()
	s.Register(s.mux)
	return s
}

// options combines the server defaults with the request's own options,
// request last so it wins where both speak.
func (s *QueryServer) options(req QueryRequest) []middleware.QueryOption {
	return append(append([]middleware.QueryOption(nil), s.defaults...), req.options()...)
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

// options lowers the wire request onto the engine's request options.
func (q QueryRequest) options() []middleware.QueryOption {
	var opts []middleware.QueryOption
	if q.K > 0 {
		opts = append(opts, middleware.TopN(q.K))
	}
	if q.Parallelism > 1 {
		opts = append(opts, middleware.WithParallelism(q.Parallelism))
	}
	if q.Shards > 1 {
		opts = append(opts, middleware.WithShards(q.Shards))
	}
	switch q.ShardPlan {
	case "weighted":
		opts = append(opts, middleware.WithShardPlan(core.ShardPlanWeighted))
	case "even":
		// Explicit, so a request can override a weighted server default.
		opts = append(opts, middleware.WithShardPlan(core.ShardPlanEven))
	}
	if q.Steal {
		opts = append(opts, middleware.WithWorkStealing(true))
	}
	if q.Budget > 0 {
		opts = append(opts, middleware.WithAccessBudget(q.Budget))
	}
	if q.Prefetch != nil {
		opts = append(opts, middleware.WithPrefetch(*q.Prefetch))
	}
	if q.Degrade > 0 {
		opts = append(opts, middleware.WithDegradedLists(q.Degrade))
	}
	if q.Tenant != "" {
		opts = append(opts, middleware.WithTenant(q.Tenant))
	}
	return opts
}

// TenantHeader is the out-of-band form of QueryRequest.Tenant: requests
// that cannot carry the body field (or proxies injecting identity) name
// the admission tenant here. The body field wins when both are set.
const TenantHeader = "X-Fuzzydb-Tenant"

func (s *QueryServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeFault(w, http.StatusBadRequest, &Fault{Message: "empty query"})
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	start := time.Now()
	rep, err := s.eng.QueryString(r.Context(), req.Query, s.options(req)...)
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
		PerShard:  costsOf(rep.PerShard),
		Shards:    rep.Shards,
		Stolen:    rep.Stolen,
		ElapsedNS: elapsed.Nanoseconds(),
	}
	for _, d := range rep.ShardDetails {
		resp.ShardDetails = append(resp.ShardDetails, ShardDetail{
			Lo: d.Range.Lo, Hi: d.Range.Hi,
			Planned: d.Planned, Actual: d.Actual, Steals: d.Steals,
		})
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
		ci := &CacheInfo{Hit: rep.Cache.Hit, Epoch: rep.Cache.Epoch}
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

// resultsRequest parses the GET /v1/results URL parameters (the
// QueryRequest fields flattened: q, k, parallelism, shards, budget,
// prefetch, degrade, shard_plan, steal, tenant).
func resultsRequest(r *http.Request) (QueryRequest, error) {
	q := r.URL.Query()
	req := QueryRequest{Query: q.Get("q")}
	if req.Query == "" {
		return req, errors.New("missing q parameter")
	}
	intParam := func(name string, into *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s: %v", name, err)
			}
			*into = n
		}
		return nil
	}
	// A slice, not a map: with several malformed parameters the one
	// reported must not depend on map iteration order.
	for _, p := range []struct {
		name string
		into *int
	}{
		{"k", &req.K}, {"parallelism", &req.Parallelism},
		{"shards", &req.Shards}, {"degrade", &req.Degrade},
	} {
		if err := intParam(p.name, p.into); err != nil {
			return req, err
		}
	}
	if v := q.Get("budget"); v != "" {
		b, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("bad budget: %v", err)
		}
		req.Budget = b
	}
	if v := q.Get("prefetch"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("bad prefetch: %v", err)
		}
		req.Prefetch = &d
	}
	req.ShardPlan = q.Get("shard_plan")
	req.Tenant = q.Get("tenant")
	if v := q.Get("steal"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("bad steal: %v", err)
		}
		req.Steal = b
	}
	return req, nil
}

// handleResults streams the engine's Results iterator as NDJSON: one
// Result row per line, in descending grade order, flushed per row so a
// slow consumer sees answers as they are computed. A mid-stream engine
// error terminates the stream with one Fault row. The evaluation runs
// under the request context: when the client disconnects, the iterator
// is cancelled at its next poll and the underlying paginator releases.
func (s *QueryServer) handleResults(w http.ResponseWriter, r *http.Request) {
	req, err := resultsRequest(r)
	if err != nil {
		writeFault(w, http.StatusBadRequest, &Fault{Message: err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(TenantHeader)
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
	for res, err := range s.eng.ResultsString(r.Context(), req.Query, s.options(req)...) {
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
