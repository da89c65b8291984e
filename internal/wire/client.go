package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fuzzydb/internal/gradedset"
)

// TransportError is the typed failure of a wire access: either the
// transport itself failed (connection refused/reset, malformed
// response — Status 0 when no HTTP status was obtained) or the server
// answered with an error envelope (Status carries the HTTP status).
// It implements the Transient capability the resilience layer's retry
// decision consults (subsys.Resilient): network failures and 5xx/429
// responses are transient, other 4xx are permanent, and a cancellation
// of the bound request context is permanent — retrying a dead request
// is futile. The underlying cause (including context.Canceled /
// context.DeadlineExceeded) is reachable through errors.Is/As.
type TransportError struct {
	// Op names the failing endpoint ("entries", "grades", "query", …).
	Op string
	// Status is the HTTP status of an error response; 0 when the failure
	// happened below HTTP (dial, reset, decode).
	Status int
	// Msg is the server's envelope message, when one was decoded.
	Msg string
	// Temporary is the transience classification (see Transient).
	Temporary bool
	// RetryAfterHint is the server's pacing advice on an overload
	// rejection (a 429's Retry-After header or envelope
	// retry_after_ms), zero when the server gave none. See RetryAfter.
	RetryAfterHint time.Duration
	// Err is the underlying cause, when there is one.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	switch {
	case e.Status != 0 && e.Msg != "":
		return fmt.Sprintf("wire: %s: server status %d: %s", e.Op, e.Status, e.Msg)
	case e.Status != 0:
		return fmt.Sprintf("wire: %s: server status %d", e.Op, e.Status)
	case e.Msg != "":
		// An in-band source fault or a malformed 200 response.
		return fmt.Sprintf("wire: %s: %s", e.Op, e.Msg)
	default:
		return fmt.Sprintf("wire: %s: %v", e.Op, e.Err)
	}
}

// Transient implements the retry-decision capability.
func (e *TransportError) Transient() bool { return e.Temporary }

// RetryAfter implements the optional pacing capability the resilience
// layer consults (subsys.Resilient): when a shedding server advised a
// retry interval, honoring it replaces the client's own exponential
// backoff for that attempt, so a fleet of resilient clients drains at
// the server's pace instead of re-stampeding it. Zero means no advice.
func (e *TransportError) RetryAfter() time.Duration { return e.RetryAfterHint }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

const (
	// maxResponseBody caps the 200 body the client decodes, as the server
	// caps request bodies (decodeRequest, 1 MiB): what arrives from the
	// network must not make an engine allocate without limit. Responses
	// are the larger direction — a full Meta.Page span at the default page
	// is ≈200 kB — so the cap leaves room for pages some fifty times that.
	maxResponseBody = 16 << 20
	// maxResultsRow caps one NDJSON row of GET /v1/results: a Result or a
	// terminating Fault envelope.
	maxResultsRow = 64 << 10
)

// tooLong is the permanent failure for a response over the client's cap:
// the body is dropped whole, never decoded as far as it went.
func tooLong(op string, limit int) *TransportError {
	return &TransportError{Op: op, Msg: fmt.Sprintf("response exceeds the client's %d-byte cap", limit)}
}

// Client speaks the wire protocol to one server. It is safe for
// concurrent use: the pipelined executor's wide random-access gather
// and the per-list background prefetchers all issue requests through
// the one pooled transport.
type Client struct {
	base string
	hc   *http.Client
	meta Meta
}

// ClientOption configures a Client.
type ClientOption func(*clientConfig)

type clientConfig struct {
	hc *http.Client
}

// maxConns sizes the default transport's connection pool
// (MaxIdleConnsPerHost): it covers the pipelined executor's widest
// default gather fan-out plus the per-list prefetchers without
// handshaking per request.
const maxConns = 128

// WithHTTPClient substitutes the underlying HTTP client (tests,
// custom transports). The caller owns its pooling configuration.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *clientConfig) { c.hc = hc }
}

// Dial connects to the server at baseURL (e.g. "http://127.0.0.1:8080"),
// fetches its /v1/meta self-description, and returns a client over it.
func Dial(baseURL string, opts ...ClientOption) (*Client, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	hc := cfg.hc
	if hc == nil {
		// One pooled transport per client: keep-alive connections sized
		// for the wide concurrent fan-out of the pipelined executor, so
		// steady-state accesses reuse warm connections instead of paying
		// a TCP handshake per probe.
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxConns * 2,
			MaxIdleConnsPerHost: maxConns,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	c := &Client{base: baseURL, hc: hc}
	if err := c.get(context.Background(), "meta", "/v1/meta", &c.meta); err != nil {
		return nil, err
	}
	if c.meta.N < 0 || len(c.meta.Lists) == 0 {
		return nil, &TransportError{Op: "meta", Msg: "server reports no lists"}
	}
	return c, nil
}

// Meta returns the server's self-description fetched at Dial time.
func (c *Client) Meta() Meta { return c.meta }

// Close releases idle pooled connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Source returns the named remote list as a subsys.Source. The source
// implements subsys.FallibleSource (transport and server faults flow
// through the typed-error machinery instead of panicking),
// subsys.ContextSource (per-request contexts bound by the engine reach
// the HTTP requests), and subsys.BatchGrader (/v1/grades).
func (c *Client) Source(list string) (*RemoteSource, error) {
	for _, name := range c.meta.Lists {
		if name == list {
			return &RemoteSource{c: c, list: list}, nil
		}
	}
	return nil, fmt.Errorf("wire: server has no list %q (has %v)", list, c.meta.Lists)
}

// Query evaluates one remote engine request (POST /v1/query). The
// server must mount the query endpoints (cmd/fuzzyserve does).
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	var resp QueryResponse
	if err := c.post(ctx, "query", "/v1/query", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Results streams a remote evaluation's answers (GET /v1/results): the
// client-side face of the server's NDJSON cursor, yielded in arrival
// (descending grade) order. Canceling ctx mid-stream closes the
// connection, which cancels the server-side evaluation. A mid-stream
// server fault or transport failure yields one (zero Result, err) pair.
func (c *Client) Results(ctx context.Context, req QueryRequest) func(yield func(Result, error) bool) {
	return func(yield func(Result, error) bool) {
		params, err := encodeParams(req)
		if err != nil {
			yield(Result{}, &TransportError{Op: "results", Err: err})
			return
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/results?"+params.Encode(), nil)
		if err != nil {
			yield(Result{}, &TransportError{Op: "results", Err: err})
			return
		}
		hresp, err := c.hc.Do(hreq)
		if err != nil {
			yield(Result{}, c.transportFailure(ctx, "results", err))
			return
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			yield(Result{}, envelopeError("results", hresp))
			return
		}
		rows := bufio.NewScanner(hresp.Body)
		rows.Buffer(nil, maxResultsRow)
		for rows.Scan() {
			// A row is either a Result or a terminating Fault envelope;
			// decode the superset and dispatch on which fields are set.
			var row struct {
				Result
				Message      *string `json:"error"`
				Transient    bool    `json:"transient"`
				RetryAfterMS int64   `json:"retry_after_ms"`
			}
			if err := json.Unmarshal(rows.Bytes(), &row); err != nil {
				yield(Result{}, c.transportFailure(ctx, "results", err))
				return
			}
			if row.Message != nil {
				yield(Result{}, &TransportError{
					Op: "results", Msg: *row.Message, Temporary: row.Transient,
					RetryAfterHint: time.Duration(row.RetryAfterMS) * time.Millisecond,
				})
				return
			}
			if !yield(row.Result, nil) {
				return
			}
		}
		switch err := rows.Err(); {
		case errors.Is(err, bufio.ErrTooLong):
			yield(Result{}, tooLong("results", maxResultsRow))
		case err != nil:
			yield(Result{}, c.transportFailure(ctx, "results", err))
		}
	}
}

// get performs one GET round trip and decodes the 200 body into out.
func (c *Client) get(ctx context.Context, op, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return &TransportError{Op: op, Err: err}
	}
	return c.round(ctx, op, req, out)
}

// post performs one POST round trip with a JSON body and decodes the
// 200 response into out.
func (c *Client) post(ctx context.Context, op, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return &TransportError{Op: op, Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return &TransportError{Op: op, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.round(ctx, op, req, out)
}

// round issues the request and decodes the response, classifying every
// failure mode into a typed *TransportError.
func (c *Client) round(ctx context.Context, op string, req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.transportFailure(ctx, op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return envelopeError(op, resp)
	}
	body := &io.LimitedReader{R: resp.Body, N: maxResponseBody + 1}
	if err := json.NewDecoder(body).Decode(out); err != nil {
		if body.N <= 0 {
			return tooLong(op, maxResponseBody)
		}
		return c.transportFailure(ctx, op, err)
	}
	return nil
}

// transportFailure classifies a sub-HTTP failure: cancellations of the
// bound context are permanent (the request is dead; retrying under the
// same context cannot succeed), everything else — dial failures,
// resets, truncated bodies — is transient.
func (c *Client) transportFailure(ctx context.Context, op string, err error) *TransportError {
	te := &TransportError{Op: op, Err: err, Temporary: true}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		te.Temporary = false
		if ctx.Err() != nil {
			// Surface the context error itself to errors.Is, not just the
			// transport's wrapping of it.
			te.Err = fmt.Errorf("%w (%v)", context.Cause(ctx), err)
		}
	}
	return te
}

// envelopeError turns a non-2xx response into a typed error, honoring
// the server's own transience claim when the body carries a Fault
// envelope and falling back to the status class (5xx and 429 transient,
// other 4xx permanent).
func envelopeError(op string, resp *http.Response) *TransportError {
	te := &TransportError{Op: op, Status: resp.StatusCode}
	te.Temporary = resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
	// Transient is a *bool here so a body that merely resembles an
	// envelope (a proxy's error page with an "error" key) cannot demote
	// a 5xx to permanent by omitting the field.
	var f struct {
		Message      string `json:"error"`
		Transient    *bool  `json:"transient"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&f); err == nil && f.Message != "" {
		te.Msg = f.Message
		if f.Transient != nil {
			te.Temporary = *f.Transient
		}
		if f.RetryAfterMS > 0 {
			te.RetryAfterHint = time.Duration(f.RetryAfterMS) * time.Millisecond
		}
	}
	// The standard header is the fallback (whole seconds, so the
	// envelope's millisecond form wins when both are present).
	if te.RetryAfterHint == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			te.RetryAfterHint = time.Duration(secs) * time.Second
		}
	}
	return te
}

// RemoteSource is one remote list as a subsys.Source: sorted access
// maps to paged /v1/entries fetches, random access to /v1/grades (one
// object for TryGrade, a batch through subsys.BatchGrader). Obtain one
// from Client.Source.
//
// The Try* methods are safe for concurrent use (the pipelined
// executor's prefetchers and gather workers all hit the shared pooled
// transport). The plain Source methods panic on a transport failure —
// they exist to satisfy the interface for consumers that never look at
// the fallible face; the middleware's Counted always prefers Try*, so
// inside the engine a wire failure is always a typed error, never a
// panic.
type RemoteSource struct {
	c    *Client
	list string
	// ctx is the per-request context bound by the engine
	// (subsys.ContextSource); atomic because leftover background
	// prefetch workers from a previous evaluation may still read it
	// while the next evaluation binds.
	ctx atomic.Pointer[context.Context]
}

// BindContext implements subsys.ContextSource: subsequent accesses run
// their HTTP requests under ctx.
func (s *RemoteSource) BindContext(ctx context.Context) {
	if ctx == nil {
		s.ctx.Store(nil)
		return
	}
	s.ctx.Store(&ctx)
}

// boundCtx returns the bound per-request context, or Background.
func (s *RemoteSource) boundCtx() context.Context {
	if p := s.ctx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// Len implements Source: the universe size from the server's meta.
func (s *RemoteSource) Len() int { return s.c.meta.N }

// Universe reports the server's universe {0,…,N−1}.
//
// Deprecated: every source grades 0…Len()−1; nothing in the engine asks.
func (s *RemoteSource) Universe() (int, bool) { return s.c.meta.N, true }

// TryEntries implements subsys.FallibleSource: one logical batched
// sorted access, coalesced into as few paged fetches as the server's
// page cap allows. On failure the entries obtained before it are
// returned alongside the error, honoring the partial-span contract.
func (s *RemoteSource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	if n := s.c.meta.N; hi > n {
		hi = n
	}
	if lo >= hi {
		return nil, nil
	}
	ctx := s.boundCtx()
	var out []gradedset.Entry
	pos := lo
	for pos < hi {
		var resp EntriesResponse
		if err := s.c.post(ctx, "entries", "/v1/entries", EntriesRequest{List: s.list, Lo: pos, Hi: hi}, &resp); err != nil {
			return out, err
		}
		span, err := resp.entries(hi-pos, s.c.meta.N)
		if err != nil {
			return out, err
		}
		if out == nil {
			// The usual case, one page completing the request, returns the
			// page's own slice; only a paged span is copied together.
			out = span
		} else {
			out = append(out, span...)
		}
		pos += len(span)
		if resp.Err != nil {
			return out, &TransportError{Op: "entries", Msg: resp.Err.Message, Temporary: resp.Err.Transient}
		}
		if len(span) == 0 {
			// An empty page without an error would otherwise spin, and
			// ending the span there would truncate the list: fail it.
			return out, &TransportError{Op: "entries", Msg: fmt.Sprintf("empty page without an error at rank %d of [%d, %d)", pos, lo, hi)}
		}
	}
	return out, nil
}

// TryEntry implements subsys.FallibleSource.
func (s *RemoteSource) TryEntry(rank int) (gradedset.Entry, error) {
	span, err := s.TryEntries(rank, rank+1)
	if len(span) == 1 {
		return span[0], err
	}
	return gradedset.Entry{}, err
}

// TryGrade implements subsys.FallibleSource: one random access, a
// one-object /v1/grades call.
func (s *RemoteSource) TryGrade(obj int) (float64, error) {
	var g [1]float64
	_, err := s.TryGrades([]int{obj}, g[:])
	return g[0], err
}

// TryGrades implements subsys.BatchGrader: one /v1/grades round trip
// for the whole batch. A mid-batch source failure on the server comes
// back as the prefix of grades obtained plus the error; a response that
// is not exactly that — too many grades, too few without an error, a
// grade outside [0, 1] — is a permanent *TransportError and delivers
// nothing.
func (s *RemoteSource) TryGrades(objs []int, out []float64) (int, error) {
	var resp GradesResponse
	if err := s.c.post(s.boundCtx(), "grades", "/v1/grades", GradesRequest{List: s.list, Objects: objs}, &resp); err != nil {
		return 0, err
	}
	n := len(resp.Grades)
	if n > len(objs) || (n < len(objs)) != (resp.Err != nil) {
		return 0, &TransportError{Op: "grades", Msg: fmt.Sprintf(
			"malformed batch: %d grades for %d objects, err set: %t", n, len(objs), resp.Err != nil)}
	}
	if err := checkGrades("grades", resp.Grades); err != nil {
		return 0, err
	}
	copy(out, resp.Grades)
	if resp.Err != nil {
		return n, &TransportError{Op: "grades", Msg: resp.Err.Message, Temporary: resp.Err.Transient}
	}
	return n, nil
}

// MaxGrades implements subsys.BatchGrader: the server's page.
func (s *RemoteSource) MaxGrades() int { return s.c.meta.Page }

// Entry implements Source; it panics on a transport failure (see the
// type comment).
func (s *RemoteSource) Entry(rank int) gradedset.Entry {
	e, err := s.TryEntry(rank)
	if err != nil {
		panic(fmt.Sprintf("wire: infallible Entry on remote list %q: %v", s.list, err))
	}
	return e
}

// Entries implements Source; it panics on a transport failure.
func (s *RemoteSource) Entries(lo, hi int) []gradedset.Entry {
	span, err := s.TryEntries(lo, hi)
	if err != nil {
		panic(fmt.Sprintf("wire: infallible Entries on remote list %q: %v", s.list, err))
	}
	return span
}

// Grade implements Source; it panics on a transport failure.
func (s *RemoteSource) Grade(obj int) float64 {
	g, err := s.TryGrade(obj)
	if err != nil {
		panic(fmt.Sprintf("wire: infallible Grade on remote list %q: %v", s.list, err))
	}
	return g
}
