package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"fuzzydb/internal/subsys"
)

// DefaultPage is the server-side cap on the entries delivered per
// /v1/entries response. Long spans are paged: the client continues from
// where the previous span ended, so one logical Entries(lo, hi) still
// costs O(span/Page) round trips rather than unbounded payloads.
const DefaultPage = 4096

// SourceServer exposes a set of named subsys.Sources as the wire
// protocol's paged RPCs (see the package documentation for the
// endpoint spec). All lists must share one universe size. Handlers call
// the sources concurrently as requests arrive, so the sources must
// tolerate concurrent reads — true of every built-in source.
//
// Sources exposing the fallible face (subsys.FallibleSource) are served
// through it: a mid-span failure is reported in-band as a Fault
// envelope alongside the partial span, so the client can reconstruct
// the exact partial-span semantics locally.
type SourceServer struct {
	lists  map[string]serverList
	meta   Meta
	page   int
	engine bool
	mux    *http.ServeMux
}

// serverList is one served list with its faces resolved: every read
// goes through Try (which cannot fail over a source without the
// fallible face) or Batch.
type serverList struct{ subsys.Faces }

// grades is one batched random access with the subsys.BatchGrader
// contract: handed to the source whole when it batches that many,
// probed object by object otherwise.
func (sl serverList) grades(objs []int, out []float64) (n int, err error) {
	if sl.Batch != nil && len(objs) <= sl.Batch.MaxGrades() {
		return sl.Batch.TryGrades(objs, out)
	}
	for i, obj := range objs {
		if out[i], err = sl.Try.TryGrade(obj); err != nil {
			return i, err
		}
	}
	return len(objs), nil
}

// ServerOption configures a SourceServer.
type ServerOption func(*SourceServer)

// WithPage caps the entries per /v1/entries response (default
// DefaultPage). Non-positive values are ignored.
func WithPage(n int) ServerOption {
	return func(s *SourceServer) {
		if n > 0 {
			s.page = n
		}
	}
}

// WithEngine advertises in /v1/meta that the mux this server registers
// on also mounts the query endpoints (cmd/fuzzyserve combines a
// SourceServer with a QueryServer on one mux).
func WithEngine() ServerOption {
	return func(s *SourceServer) { s.engine = true }
}

// NewSourceServer builds a server over the named lists. All lists must
// be non-empty as a set and share one universe size.
func NewSourceServer(lists map[string]subsys.Source, opts ...ServerOption) (*SourceServer, error) {
	if len(lists) == 0 {
		return nil, errors.New("wire: no lists to serve")
	}
	s := &SourceServer{lists: make(map[string]serverList, len(lists)), page: DefaultPage}
	for _, opt := range opts {
		opt(s)
	}
	names := make([]string, 0, len(lists))
	n := -1
	for name, src := range lists {
		names = append(names, name)
		if n < 0 {
			n = src.Len()
		} else if src.Len() != n {
			return nil, fmt.Errorf("wire: list %q has %d objects, want %d", name, src.Len(), n)
		}
		s.lists[name] = serverList{subsys.FacesOf(src)}
	}
	sort.Strings(names)
	s.meta = Meta{N: n, Lists: names, Page: s.page, Engine: s.engine}
	s.mux = http.NewServeMux()
	s.Register(s.mux)
	return s, nil
}

// Meta returns the served self-description.
func (s *SourceServer) Meta() Meta { return s.meta }

// Register mounts the source endpoints on mux, so callers can combine
// them with a QueryServer (cmd/fuzzyserve does) or their own routes.
func (s *SourceServer) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/meta", s.handleMeta)
	mux.HandleFunc("POST /v1/entries", s.handleEntries)
	mux.HandleFunc("POST /v1/grades", s.handleGrades)
}

// ServeHTTP implements http.Handler over the server's own mux.
func (s *SourceServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *SourceServer) handleMeta(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.meta)
}

func (s *SourceServer) handleEntries(w http.ResponseWriter, r *http.Request) {
	var req EntriesRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	sl, ok := s.lists[req.List]
	if !ok {
		writeFault(w, http.StatusNotFound, &Fault{Message: fmt.Sprintf("unknown list %q", req.List)})
		return
	}
	n := sl.Src.Len()
	if req.Lo < 0 || req.Lo > req.Hi || req.Hi > n {
		writeFault(w, http.StatusBadRequest, &Fault{Message: fmt.Sprintf("bad span [%d, %d) over %d ranks", req.Lo, req.Hi, n)})
		return
	}
	hi := req.Hi
	if hi > req.Lo+s.page {
		hi = req.Lo + s.page
	}
	resp, ok := serveBound(r, sl.Src, func() EntriesResponse {
		span, err := sl.Try.TryEntries(req.Lo, hi)
		// Sized, not grown: a pipelined client asks for hundreds of ranks
		// per call. Never nil, so an empty span still encodes as [].
		resp := EntriesResponse{Objects: make([]int, len(span)), Grades: make([]float64, len(span))}
		for i, e := range span {
			resp.Objects[i], resp.Grades[i] = e.Object, e.Grade
		}
		if err != nil {
			resp.Err = faultOf(err)
		}
		return resp
	})
	if !ok {
		return // client gone; nothing to write
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *SourceServer) handleGrades(w http.ResponseWriter, r *http.Request) {
	var req GradesRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	sl, ok := s.lists[req.List]
	if !ok {
		writeFault(w, http.StatusNotFound, &Fault{Message: fmt.Sprintf("unknown list %q", req.List)})
		return
	}
	if len(req.Objects) > s.page {
		writeFault(w, http.StatusBadRequest, &Fault{Message: fmt.Sprintf("batch of %d objects exceeds the page of %d", len(req.Objects), s.page)})
		return
	}
	for _, obj := range req.Objects {
		if uint(obj) >= uint(s.meta.N) {
			writeFault(w, http.StatusBadRequest, &Fault{Message: fmt.Sprintf("object %d outside the universe of %d", obj, s.meta.N)})
			return
		}
	}
	resp, ok := serveBound(r, sl.Src, func() GradesResponse {
		out := make([]float64, len(req.Objects))
		n, err := sl.grades(req.Objects, out)
		resp := GradesResponse{Grades: out[:n]}
		if err != nil {
			resp.Err = faultOf(err)
		}
		return resp
	})
	if !ok {
		return // client gone; nothing to write
	}
	writeJSON(w, http.StatusOK, resp)
}

// serveBound runs one source access under the client's request context,
// the way /v1/query evaluations already do: the context is forwarded
// into the source when it has the per-request capability
// (subsys.ContextSource), so a wedged transport call underneath is
// abandoned, and — capability or not — the handler stops waiting the
// moment the client disconnects instead of holding the connection until
// the source returns. The abandoned access finishes on its own
// goroutine and its result is discarded.
func serveBound[T any](r *http.Request, src subsys.Source, access func() T) (T, bool) {
	ctx := r.Context()
	if cs, ok := src.(subsys.ContextSource); ok {
		cs.BindContext(ctx)
	}
	done := make(chan T, 1)
	go func() { done <- access() }()
	select {
	case v := <-done:
		return v, true
	case <-ctx.Done():
		var zero T
		return zero, false
	}
}

// faultOf flattens a source error into the wire envelope, preserving
// the transience classification (the subsys.Resilient retry decision on
// the far side of the wire depends on it). Errors without the
// capability are transient by convention, matching subsys.retryable.
func faultOf(err error) *Fault {
	f := &Fault{Message: err.Error(), Transient: true}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		f.Transient = tr.Transient()
	}
	return f
}

// decodeRequest parses the JSON request body, answering 400 (permanent)
// on malformed input or a field the request does not have. It reports whether the handler should proceed.
func decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeFault(w, http.StatusBadRequest, &Fault{Message: fmt.Sprintf("bad request: %v", err)})
		return false
	}
	return true
}

// writeJSON encodes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeFault writes the non-2xx protocol error envelope. An overload
// rejection's pacing advice additionally travels as a standard
// Retry-After header (whole seconds, rounded up so a sub-second advice
// never truncates to "retry immediately"), alongside the exact
// millisecond form in the envelope.
func writeFault(w http.ResponseWriter, status int, f *Fault) {
	if f.RetryAfterMS > 0 {
		secs := (f.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, f)
}
