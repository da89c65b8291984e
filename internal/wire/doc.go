// Package wire makes the engine deployable: it exposes subsys.Sources
// and the middleware query engine over a JSON/HTTP protocol, and
// implements the client half as a subsys.Source so a local engine can
// evaluate Fagin's algorithms against remote subsystems without any
// change to the executors or the Section 5 cost accounting.
//
// The design target is transparency: a query evaluated over wire-backed
// sources must return bit-identical results AND bit-identical Section 5
// tallies (sorted/random access counts) to the same query over the
// in-process sources, because metering happens in subsys.Counted on the
// client side of the wire — the transport moves bytes, never costs.
// What the wire adds is latency, which is exactly what the pipelined
// executor and prefetch pipelines exist to hide; the Wire benchmarks
// pin that hiding against a real network stack (loopback).
//
// # Endpoints
//
// A SourceServer serves raw sorted lists; a QueryServer serves a full
// engine. cmd/fuzzyserve mounts both on one mux.
//
//	GET  /v1/meta     → Meta{n, dense, lists, page, grades, engine}
//	POST /v1/entries  EntriesRequest{list, lo, hi} → EntriesResponse{objects, grades, err?}
//	POST /v1/grade    GradeRequest{list, object}   → GradeResponse{grade, err?}
//	POST /v1/grades   GradesRequest{list, objects} → GradesResponse{grades, err?}
//	POST /v1/query    QueryRequest                 → QueryResponse
//	GET  /v1/results  QueryRequest as URL params   → NDJSON stream of Result rows
//
// QueryRequest is the engine's own request type (middleware.Request),
// whose doc comment names every field once; the URL form carries the same
// fields under the same JSON names (the query as q; see params.go). The
// server decodes either form onto a zero request, so an absent name is
// the engine default, and refuses a malformed, unknown or negative value,
// or a name that is no field, with a 400 naming it.
//
// /v1/entries is sorted access: the entries at ranks [lo, hi) of one
// list, paged — the server delivers at most Meta.Page entries per
// response and the client continues from rank lo+len(objects). /v1/grade
// is random access; /v1/grades is random access in batches: grades[i]
// is the grade of objects[i], for at most Meta.Page objects — a larger
// batch, or on a dense server an object id outside {0,…,n−1}, is a 400.
// The batch is len(objects) accesses delivered together, never a
// cheaper kind of access: the client still meters one random access per
// grade it delivers. When the backing source fails mid-batch the
// response carries the grades obtained before the failure plus err, and
// the failure belongs to objects[len(grades)] — the partial-prefix
// contract of /v1/entries (subsys.BatchGrader on the client). A response
// shorter than the request without err, or longer than it, is malformed.
// /v1/query evaluates one request end to end and
// returns the full report (results, Section 5 tallies, per-list
// breakdown, plan, prefetch stats, degraded lists).
//
// # Error envelope
//
// All failures use one JSON shape, Fault:
//
//	{"error": "message", "transient": true, "cost": {"sorted": s, "random": r}}
//
// It appears in two positions with two meanings. In-band (the err field
// of a 200 entries/grade response): the backing source itself failed;
// the delivered span is the longest prefix obtained before the failure,
// preserving the subsys.FallibleSource partial-span contract across the
// wire. As the body of a non-2xx response: the protocol call failed —
// 400 malformed request or plan error, 404 unknown list, 422 budget
// exhausted (cost carries the partial spend), 429 admission shed by a
// scheduled server, 502 source failure during a query, 504 evaluation
// cancelled or timed out. The transient flag feeds the client-side
// retry decision (subsys.Resilient): 5xx and 429 default transient,
// other 4xx permanent.
//
// # Compatibility
//
// /v1/grades postdates the other source endpoints. A server that mounts
// it says so in Meta ("grades": true); a client dialled to a server
// that does not keeps to one /v1/grade per object — RemoteSource then
// reports the batch capability absent (MaxGrades 0) and every layer
// above falls back by itself. An old client simply never calls the new
// route. Neither side has a switch for it.
//
// # Malformed responses
//
// The client trusts the status line, not the body: an entries span
// whose objects and grades differ in length or that is longer than
// asked for, a grades batch of the wrong length, and any grade outside
// [0, 1] (NaN and infinities do not survive JSON decoding at all) are
// returned as a *TransportError — permanent when the JSON was well
// formed, since a retry would be answered the same — and none of the
// response's values reach the engine.
//
// # Overload: 429 and Retry-After
//
// A server whose engine runs behind an admission scheduler
// (fuzzydb.WithScheduler; cmd/fuzzyserve -rate/-tenants) sheds work it
// cannot serve in time. The shed's typed *sched.OverloadError maps to
// 429 with the scheduler's pacing advice in two forms: a standard
// Retry-After header (whole seconds, rounded up) and the envelope's
// retry_after_ms field (exact milliseconds; it wins when both are
// present). Requests name their admission tenant in the request's tenant
// field or, when it has none, the X-Fuzzydb-Tenant header. The client
// lifts the advice into TransportError.RetryAfterHint, exposed through
// the optional RetryAfter() capability that subsys.Resilient consults: a retry
// after a 429 sleeps the server's advised interval instead of the
// client's own exponential backoff, so a fleet of resilient clients
// drains at the pace the shedding server asked for rather than
// re-stampeding it.
//
// # Streaming cursor
//
// GET /v1/results streams answers as NDJSON (Content-Type
// application/x-ndjson): one {"object": o, "grade": g} row per line, in
// descending grade order, flushed per row. It is a cursor over the
// engine's continuation iterator (middleware.Results): k sets the page
// size — the "next k best" computed at a time — not a stop bound; the
// stream continues until the universe (or the budget) is exhausted or
// the client disconnects, which is how a consumer says "enough". A mid-stream engine failure
// terminates the stream with one Fault row (distinguished by its error
// field). The evaluation runs under the HTTP request context, so a
// client disconnect cancels the server-side evaluation at its next
// poll: pagination state releases, budget reservations settle, and no
// goroutines leak — the wedged-server and disconnect tests pin this
// under the race detector.
//
// # Client
//
// Dial fetches /v1/meta and returns a Client over one pooled
// http.Transport with MaxIdleConnsPerHost sized for the pipelined
// executor's wide gather fan-out (default 128), so steady-state
// accesses ride warm keep-alive connections. Client.Source yields a
// RemoteSource implementing:
//
//   - subsys.Source — plain access (panics on transport failure; the
//     engine never uses this face when a fallible one exists);
//   - subsys.FallibleSource — transport errors, server faults, and
//     in-band source faults surface as typed *TransportError values
//     carrying a Transient() classification, so subsys.Resilient can
//     retry, break, and degrade exactly as it does for local faults;
//   - subsys.UniverseHinter — forwards the server's dense-universe
//     claim so downstream set algebra keeps the flat-array fast path;
//   - subsys.ContextSource — the engine binds each evaluation's context
//     (core.NewExecContext), and every HTTP access runs under it, so
//     cancelling a query cancels its in-flight network reads;
//   - subsys.BatchGrader — TryGrades is one /v1/grades round trip, so
//     the pipelined executor's gather phase costs one round trip per
//     list (per Meta.Page misses) instead of one per object.
//
// TryEntries(lo, hi) coalesces one logical span into sequential paged
// fetches and, on failure, returns the partial span alongside the
// error. Under the pipelined executor the spans are long — its readahead
// opens at the depth the algorithm expects to reach, so an A₀ query
// reads a list in one or two /v1/entries calls of a few hundred ranks
// rather than a doubling ramp of small ones — and every one is checked
// before the engine sees it: a span that is malformed, out of [0, 1],
// not in descending grade order, or (on a dense universe) names an
// object outside it is a permanent *TransportError delivering nothing.
// Client.Query and Client.Results evaluate remotely instead,
// for deployments where the data and the engine live together and only
// answers cross the wire (cmd/fuzzyquery -connect).
package wire
