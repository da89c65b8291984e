package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// Tracing is done entirely from this package: the engine is observed by
// wrapping what goes into it (subsystems, sources), what carries its
// traffic (the HTTP transport, the HTTP handler) and the calls the
// driver makes into it. Nothing inside fuzzydb is instrumented.

// Span names, one per layer boundary.
const (
	spanRequest      = "request"               // driver: one operation of one client
	spanQuery        = "middleware.query"      // around Engine.Query
	spanClient       = "wire.client"           // around wire.Client.Query
	spanRoundTrip    = "wire.roundtrip"        // http.RoundTripper, until the body is consumed
	spanServer       = "wire.server"           // http.Handler wrapper around the mux
	spanSrcEntries   = "subsys.source.entries" // Source.Entry/Entries (sorted access)
	spanSrcGrade     = "subsys.source.grade"   // Source.Grade (random access)
	traceHeader      = "X-Fuzzybench-Span"     // carries request-span-sampled across HTTP
	traceSampleRate  = 50                      // source spans are kept for 1 request in this many
	traceSourceSpans = 256                     // and at most this many of them per request
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root or an unlinked span.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanCtx is the position in the span tree new child spans attach to.
type spanCtx struct {
	request uint64
	id      uint64
	sampled bool
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	if ctx == nil {
		return spanCtx{}, false
	}
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok
}

// nameAgg aggregates every span of one name, kept or not.
type nameAgg struct {
	count atomic.Int64
	ns    atomic.Int64
}

// tracer collects spans in memory. Structural spans (request, query,
// client, roundtrip, server) are kept for every request; the far more
// numerous source spans are kept only for sampled requests, and always
// aggregated by name.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
	aggs  map[string]*nameAgg

	// srcCalls[r] counts the source calls made under request r, for
	// the "a cache hit touches no source" isolation check.
	srcCalls []atomic.Int32
}

// newTracer sizes the per-request counters for requests 1..requests.
func newTracer(requests int) *tracer {
	return &tracer{epoch: time.Now(), aggs: make(map[string]*nameAgg), srcCalls: make([]atomic.Int32, requests+1)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// agg returns the aggregate cell for name, creating it on first use.
// Wrappers resolve their cells once, at construction.
func (t *tracer) agg(name string) *nameAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.aggs[name]
	if !ok {
		a = &nameAgg{}
		t.aggs[name] = a
	}
	return a
}

// begin opens a span under parent and returns its context and start.
func (t *tracer) begin(parent spanCtx) (spanCtx, int64) {
	return spanCtx{request: parent.request, id: t.nextID.Add(1), sampled: parent.sampled}, t.now()
}

// end closes a span: always aggregated, recorded when keep is set.
func (t *tracer) end(a *nameAgg, name string, sc spanCtx, parent uint64, start int64, keep bool) {
	end := t.now()
	a.count.Add(1)
	a.ns.Add(end - start)
	if !keep {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: sc.id, Parent: parent, Request: sc.request, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// root opens the request span for the i-th operation (1-based).
func (t *tracer) root(i int) (spanCtx, int64) {
	return t.begin(spanCtx{request: uint64(i), sampled: i%traceSampleRate == 1})
}

// total returns the call count and total nanoseconds of a span name.
func (t *tracer) total(name string) (count, ns int64) {
	t.mu.Lock()
	a := t.aggs[name]
	t.mu.Unlock()
	if a == nil {
		return 0, 0
	}
	return a.count.Load(), a.ns.Load()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSampled writes the spans of sampled requests as JSON.
func (t *tracer) writeSampled(path string) error {
	var out []span
	for _, s := range t.snapshot() {
		if s.Request%traceSampleRate == 1 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// unionLength returns the total length covered by the intervals after
// clipping each to [lo, hi). Overlaps count once: the pipelined executor
// keeps many RPCs in flight, so children are united, not summed.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.lo < iv.hi {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		total += iv.hi - end
		end = iv.hi
	}
	return total
}

// selfTimes returns, for every span, its duration minus the union of
// its direct children's intervals.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - unionLength(children[s.ID], s.Start, s.End)
	}
	return self
}

// --- tracing sources and subsystems ---

// access is one logged source call: Grade(Obj) when Random, otherwise
// Entries(Lo, Hi).
type access struct {
	List   int
	Random bool
	Lo, Hi int
	Obj    int
}

// accessLog records the source calls of one evaluation so the ladder
// can replay exactly that access pattern against the bare lists.
type accessLog struct {
	mu  sync.Mutex
	ops []access
}

func (l *accessLog) add(a access) {
	l.mu.Lock()
	l.ops = append(l.ops, a)
	l.mu.Unlock()
}

// sourceProbe is what a tracing source reports into. The aggregate
// cells are shared by every source of a tracer; log and list are set
// only by the ladder.
type sourceProbe struct {
	t       *tracer
	entries *nameAgg // calls and busy time of Entry/Entries
	grade   *nameAgg // calls and busy time of Grade
	ranks   *atomic.Int64
	log     *accessLog
	list    int
}

func newSourceProbe(t *tracer) sourceProbe {
	return sourceProbe{t: t, entries: t.agg(spanSrcEntries), grade: t.agg(spanSrcGrade), ranks: new(atomic.Int64)}
}

// tracedSource wraps a Source: every sorted and random access is
// counted and timed. It has no per-request state and no BindContext, so
// one instance may serve concurrent requests — it is the form handed to
// wire.SourceServer, which shares one Source per list.
type tracedSource struct {
	inner subsys.Source
	p     sourceProbe
	// at is the span the calls attach to; the zero value leaves them
	// unlinked (aggregated by name only).
	at atomic.Pointer[spanCtx]
}

// enter opens the span of one source call. A miss makes thousands of
// them, so even a sampled request keeps only its first few; every call
// is still counted and timed in the aggregates.
func (s *tracedSource) enter() (spanCtx, spanCtx, int64) {
	var parent spanCtx
	if p := s.at.Load(); p != nil {
		parent = *p
		if int(parent.request) < len(s.p.t.srcCalls) {
			if s.p.t.srcCalls[parent.request].Add(1) > traceSourceSpans {
				parent.sampled = false
			}
		}
	}
	sc, start := s.p.t.begin(parent)
	return parent, sc, start
}

// Len implements subsys.Source.
func (s *tracedSource) Len() int { return s.inner.Len() }

// Universe forwards subsys.UniverseHinter; a source without the
// capability reports "not dense", which is what its absence means.
func (s *tracedSource) Universe() (int, bool) {
	if h, ok := s.inner.(subsys.UniverseHinter); ok {
		return h.Universe()
	}
	return 0, false
}

// Entry implements subsys.Source.
func (s *tracedSource) Entry(rank int) gradedset.Entry {
	parent, sc, start := s.enter()
	e := s.inner.Entry(rank)
	s.sorted(parent, sc, start, rank, rank+1, 1)
	return e
}

// Entries implements subsys.Source.
func (s *tracedSource) Entries(lo, hi int) []gradedset.Entry {
	parent, sc, start := s.enter()
	es := s.inner.Entries(lo, hi)
	s.sorted(parent, sc, start, lo, hi, len(es))
	return es
}

// Grade implements subsys.Source.
func (s *tracedSource) Grade(obj int) float64 {
	parent, sc, start := s.enter()
	g := s.inner.Grade(obj)
	s.random(parent, sc, start, obj)
	return g
}

func (s *tracedSource) sorted(parent, sc spanCtx, start int64, lo, hi, delivered int) {
	s.p.t.end(s.p.entries, spanSrcEntries, sc, parent.id, start, parent.sampled)
	s.p.ranks.Add(int64(delivered))
	if s.p.log != nil {
		s.p.log.add(access{List: s.p.list, Lo: lo, Hi: hi})
	}
}

func (s *tracedSource) random(parent, sc spanCtx, start int64, obj int) {
	s.p.t.end(s.p.grade, spanSrcGrade, sc, parent.id, start, parent.sampled)
	if s.p.log != nil {
		s.p.log.add(access{List: s.p.list, Random: true, Obj: obj})
	}
}

// boundSource is the per-evaluation form: the engine binds the request
// context into it (subsys.ContextSource), which is where the source
// learns which span its calls belong to. The binding is forwarded.
type boundSource struct {
	*tracedSource
}

// BindContext implements subsys.ContextSource.
func (s boundSource) BindContext(ctx context.Context) {
	if sc, ok := spanFrom(ctx); ok {
		s.at.Store(&sc)
	} else {
		s.at.Store(nil)
	}
	if cs, ok := s.inner.(subsys.ContextSource); ok {
		cs.BindContext(ctx)
	}
}

// fallibleSource adds the fallible face for inner sources that have
// one, so subsys.Counted keeps routing through Try* exactly as it would
// without the wrapper.
type fallibleSource struct {
	boundSource
	fs subsys.FallibleSource
}

// TryEntry implements subsys.FallibleSource.
func (s fallibleSource) TryEntry(rank int) (gradedset.Entry, error) {
	parent, sc, start := s.enter()
	e, err := s.fs.TryEntry(rank)
	n := 1
	if err != nil {
		n = 0
	}
	s.sorted(parent, sc, start, rank, rank+1, n)
	return e, err
}

// TryEntries implements subsys.FallibleSource.
func (s fallibleSource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	parent, sc, start := s.enter()
	es, err := s.fs.TryEntries(lo, hi)
	s.sorted(parent, sc, start, lo, hi, len(es))
	return es, err
}

// TryGrade implements subsys.FallibleSource.
func (s fallibleSource) TryGrade(obj int) (float64, error) {
	parent, sc, start := s.enter()
	g, err := s.fs.TryGrade(obj)
	s.random(parent, sc, start, obj)
	return g, err
}

// traceSource wraps src in the per-evaluation tracing form, keeping
// the fallible face when src has one.
func traceSource(src subsys.Source, p sourceProbe) subsys.Source {
	b := boundSource{&tracedSource{inner: src, p: p}}
	if fs, ok := src.(subsys.FallibleSource); ok {
		return fallibleSource{boundSource: b, fs: fs}
	}
	return b
}

// tracedSubsystem wraps a Subsystem so every Source it hands the engine
// is a tracing one. The optional subsystem capabilities are forwarded
// with the value their absence stands for, so the engine plans, caches
// and revalidates exactly as it does over the bare subsystem.
type tracedSubsystem struct {
	inner subsys.Subsystem
	p     sourceProbe
}

// Attribute implements subsys.Subsystem.
func (s *tracedSubsystem) Attribute() string { return s.inner.Attribute() }

// Size implements subsys.Subsystem.
func (s *tracedSubsystem) Size() int { return s.inner.Size() }

// Query implements subsys.Subsystem.
func (s *tracedSubsystem) Query(target string) (subsys.Source, error) {
	src, err := s.inner.Query(target)
	if err != nil {
		return nil, err
	}
	return traceSource(src, s.p), nil
}

// Epoch forwards subsys.Versioned; immutable subsystems stay at 0.
func (s *tracedSubsystem) Epoch() uint64 {
	if v, ok := s.inner.(subsys.Versioned); ok {
		return v.Epoch()
	}
	return 0
}

// UpdatesSince forwards subsys.Versioned.
func (s *tracedSubsystem) UpdatesSince(since uint64) ([]subsys.Update, bool) {
	if v, ok := s.inner.(subsys.Versioned); ok {
		return v.UpdatesSince(since)
	}
	return nil, since == 0
}

// GradeSketch forwards subsys.GradeSketcher; nil sends the planner to
// its sampling fallback, as a subsystem without the capability would.
func (s *tracedSubsystem) GradeSketch(target string) *subsys.Sketch {
	if gs, ok := s.inner.(subsys.GradeSketcher); ok {
		return gs.GradeSketch(target)
	}
	return nil
}

// traceSubsystems wraps every subsystem with one shared probe.
func traceSubsystems(subs []subsys.Subsystem, p sourceProbe) []subsys.Subsystem {
	out := make([]subsys.Subsystem, len(subs))
	for i, s := range subs {
		out[i] = &tracedSubsystem{inner: s, p: p}
	}
	return out
}

// --- tracing HTTP transport and handler ---

// rpcStats is what the tracing transport counts besides spans.
type rpcStats struct {
	rpcs, entries, grades atomic.Int64
	reqBytes, respBytes   atomic.Int64
	inflight, inflightMax atomic.Int64
}

// tracingTransport is the http.RoundTripper injected with
// wire.WithHTTPClient. A round trip's span runs until the response body
// is fully read (or closed), because that is when the last byte the
// client waited for arrived.
type tracingTransport struct {
	base  http.RoundTripper
	t     *tracer
	agg   *nameAgg
	stats *rpcStats
}

func newTracingTransport(base http.RoundTripper, t *tracer) *tracingTransport {
	return &tracingTransport{base: base, t: t, agg: t.agg(spanRoundTrip), stats: &rpcStats{}}
}

// RoundTrip implements http.RoundTripper.
func (rt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := spanFrom(req.Context())
	sc, start := rt.t.begin(parent)
	st := rt.stats
	st.rpcs.Add(1)
	switch {
	case strings.HasSuffix(req.URL.Path, "/entries"):
		st.entries.Add(1)
	case strings.HasSuffix(req.URL.Path, "/grade"):
		st.grades.Add(1)
	}
	if req.ContentLength > 0 {
		st.reqBytes.Add(req.ContentLength)
	}
	if n := st.inflight.Add(1); n > st.inflightMax.Load() {
		// Racy max: a lost update under-reports by at most the racing
		// peers, which is fine for a gauge read once at the end.
		st.inflightMax.Store(n)
	}
	out := req.Clone(req.Context())
	out.Header.Set(traceHeader, fmt.Sprintf("%d-%d-%t", sc.request, sc.id, sc.sampled))
	resp, err := rt.base.RoundTrip(out)
	done := func() {
		st.inflight.Add(-1)
		rt.t.end(rt.agg, spanRoundTrip, sc, parent.id, start, true)
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &tracedBody{rc: resp.Body, stats: st, done: done}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport's pool.
func (rt *tracingTransport) CloseIdleConnections() {
	if c, ok := rt.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// tracedBody ends the round-trip span at EOF or Close, whichever comes
// first, and counts the response bytes.
type tracedBody struct {
	rc    io.ReadCloser
	stats *rpcStats
	once  sync.Once
	done  func()
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.stats.respBytes.Add(int64(n))
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(b.done)
	return b.rc.Close()
}

// tracingHandler wraps the server mux: one wire.server span per HTTP
// request, linked to the client's round-trip span through the trace
// header, and put into the request context so the engine's sources find
// it when the engine binds that context.
func tracingHandler(next http.Handler, t *tracer) http.Handler {
	agg := t.agg(spanServer)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent spanCtx
		if parts := strings.Split(r.Header.Get(traceHeader), "-"); len(parts) == 3 {
			parent.request, _ = strconv.ParseUint(parts[0], 10, 64)
			parent.id, _ = strconv.ParseUint(parts[1], 10, 64)
			parent.sampled = parts[2] == "true"
		}
		sc, start := t.begin(parent)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sc)))
		t.end(agg, spanServer, sc, parent.id, start, true)
	})
}
