package wire_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/middleware"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// testDB draws one deterministic scoring database.
func testDB(t testing.TB, n, m int, seed uint64) *scoredb.Database {
	t.Helper()
	db, err := scoredb.Generator{N: n, M: m, Law: scoredb.Uniform{}, Seed: seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// listName is the attribute naming shared by all wire tests: A1…Am.
func listName(i int) string { return fmt.Sprintf("A%d", i+1) }

// dbSources exposes db's lists under the A1…Am names.
func dbSources(db *scoredb.Database) map[string]subsys.Source {
	lists := make(map[string]subsys.Source, db.M())
	for i := 0; i < db.M(); i++ {
		lists[listName(i)] = subsys.FromList(db.List(i))
	}
	return lists
}

// localEngine builds the in-process reference engine over db.
func localEngine(t testing.TB, db *scoredb.Database) *middleware.Middleware {
	t.Helper()
	return engineOver(t, staticSubsystems(db))
}

// serveSources starts a loopback source server over db and dials it.
func serveSources(t testing.TB, db *scoredb.Database, opts ...wire.ServerOption) *wire.Client {
	t.Helper()
	ss, err := wire.NewSourceServer(dbSources(db), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	t.Cleanup(ts.Close)
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

// wireEngine builds an engine whose sources live across the wire.
func wireEngine(t testing.TB, client *wire.Client) *middleware.Middleware {
	t.Helper()
	return engineOver(t, client.Subsystems())
}

// queryOf builds the m-way conjunction A1 = "*" AND … AND Am = "*".
func queryOf(m int) string {
	q := `A1 = "*"`
	for i := 1; i < m; i++ {
		q += fmt.Sprintf(` AND A%d = "*"`, i+1)
	}
	return q
}

// mustQuery evaluates and fails the test on error.
func mustQuery(t *testing.T, eng *middleware.Middleware, q string, opts ...middleware.QueryOption) *middleware.Report {
	t.Helper()
	rep, err := eng.QueryString(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertReportsEqual pins the transparency contract: results and ALL
// Section 5 tallies bit-identical between two evaluations.
func assertReportsEqual(t *testing.T, want, got *middleware.Report) {
	t.Helper()
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Errorf("results diverge:\nlocal: %v\nwire:  %v", want.Results, got.Results)
	}
	if want.Cost != got.Cost {
		t.Errorf("cost diverges: local %v, wire %v", want.Cost, got.Cost)
	}
	if !reflect.DeepEqual(want.PerList, got.PerList) {
		t.Errorf("per-list cost diverges: local %v, wire %v", want.PerList, got.PerList)
	}
}

// TestLoopbackEquivalence is the tentpole's transparency contract: a
// query evaluated over wire-backed sources returns bit-identical results
// and bit-identical Section 5 tallies (total and per list) to the same
// query over the plain in-process Static subsystems — under the serial
// executor and the pipelined one. The server's page cap is set below
// the spans the algorithms fetch, so the client's paged-coalescing loop
// is on the tested path.
func TestLoopbackEquivalence(t *testing.T) {
	db := testDB(t, 2000, 3, 11)
	local := localEngine(t, db)
	remote := wireEngine(t, serveSources(t, db, wire.WithPage(64)))
	q := queryOf(db.M())

	cases := []struct {
		name string
		opts []middleware.QueryOption
	}{
		{"Serial", nil},
		{"Parallel", []middleware.QueryOption{middleware.WithParallelism(3)}},
		{"Pipelined", []middleware.QueryOption{middleware.WithPrefetch(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]middleware.QueryOption{middleware.TopN(10)}, tc.opts...)
			want := mustQuery(t, local, q, opts...)
			got := mustQuery(t, remote, q, opts...)
			assertReportsEqual(t, want, got)
		})
	}
}

// TestRemoteQueryEquivalence pins the thin-client path: a query POSTed
// to a full fuzzyserve-style server (sources + engine on one mux)
// returns the same plan, answers and tallies the local engine computes,
// and the /v1/results cursor yields the same prefix. The median, spelled
// as the OR of the pairwise ANDs of three lists, crosses the wire like
// any query and is planned as the subset decomposition.
func TestRemoteQueryEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name, q, alg string
		m            int
	}{
		{"conjunction", queryOf(2), "A0'", 2},
		{"median", `(A1 = "*" AND A2 = "*") OR (A1 = "*" AND A3 = "*") OR (A2 = "*" AND A3 = "*")`, "orderstat-2-via-subsets", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := testDB(t, 2000, tc.m, 12)
			local := localEngine(t, db)

			ss, err := wire.NewSourceServer(dbSources(db), wire.WithEngine())
			if err != nil {
				t.Fatal(err)
			}
			qs := wire.NewQueryServer(local)
			mux := http.NewServeMux()
			ss.Register(mux)
			qs.Register(mux)
			ts := httptest.NewServer(mux)
			defer ts.Close()

			client, err := wire.Dial(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if !client.Meta().Engine {
				t.Fatal("meta does not advertise the engine")
			}

			want := mustQuery(t, local, tc.q, middleware.TopN(7))
			resp, err := client.Query(context.Background(), wire.QueryRequest{Query: tc.q, K: 7})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Algorithm != tc.alg || want.Plan.Algorithm.Name() != tc.alg {
				t.Errorf("algorithm: wire %q, local %q, want %q", resp.Algorithm, want.Plan.Algorithm.Name(), tc.alg)
			}
			if len(resp.Results) != len(want.Results) {
				t.Fatalf("got %d results, want %d", len(resp.Results), len(want.Results))
			}
			for i, r := range resp.Results {
				if r.Object != want.Results[i].Object || r.Grade != want.Results[i].Grade {
					t.Errorf("result %d diverges: got %+v, want %+v", i, r, want.Results[i])
				}
			}
			if resp.Cost.Sorted != want.Cost.Sorted || resp.Cost.Random != want.Cost.Random {
				t.Errorf("cost diverges: got %+v, want %v", resp.Cost, want.Cost)
			}

			// The streaming cursor yields the same prefix in the same order.
			var streamed []wire.Result
			for r, err := range client.Results(context.Background(), wire.QueryRequest{Query: tc.q, K: 7}) {
				if err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, r)
				if len(streamed) == 7 {
					break
				}
			}
			if !reflect.DeepEqual(streamed, resp.Results) {
				t.Errorf("stream prefix diverges from one-shot results:\nstream: %v\nquery:  %v", streamed, resp.Results)
			}
		})
	}
}

// testFault is a deliberate transient source failure.
type testFault struct{}

func (testFault) Error() string   { return "injected test fault" }
func (testFault) Transient() bool { return true }

// failAtSource delivers its list faithfully except that sorted spans
// covering one chosen rank fail their first two attempts with the
// partial prefix, like a flaky backend that recovers under retry.
type failAtSource struct {
	subsys.ListSource
	rank int

	mu       sync.Mutex
	attempts int
}

func (f *failAtSource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	if lo <= f.rank && f.rank < hi {
		f.mu.Lock()
		f.attempts++
		n := f.attempts
		f.mu.Unlock()
		if n <= 2 {
			return f.Entries(lo, f.rank), testFault{}
		}
	}
	return f.Entries(lo, hi), nil
}

func (f *failAtSource) TryEntry(rank int) (gradedset.Entry, error) {
	span, err := f.TryEntries(rank, rank+1)
	if len(span) == 1 {
		return span[0], err
	}
	return gradedset.Entry{}, err
}

func (f *failAtSource) TryGrade(obj int) (float64, error) { return f.Grade(obj), nil }

// TestPagedPartialSpan pins the partial-span contract across the wire:
// when the backing source fails mid-span, the client receives the
// longest delivered prefix alongside a typed transient error, exactly as
// a local FallibleSource would deliver it.
func TestPagedPartialSpan(t *testing.T) {
	db := testDB(t, 256, 1, 13)
	// Fault site at sorted rank 40 (transient: clears after 2 attempts).
	faulty := &failAtSource{ListSource: subsys.FromList(db.List(0)), rank: 40}
	ss, err := wire.NewSourceServer(map[string]subsys.Source{"A1": faulty}, wire.WithPage(16))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	src, err := client.Source("A1")
	if err != nil {
		t.Fatal(err)
	}

	span, err := src.TryEntries(0, 100)
	if err == nil {
		t.Fatal("expected a mid-span fault")
	}
	if len(span) != 40 {
		t.Fatalf("partial span has %d entries, want 40 (up to the fault site)", len(span))
	}
	var te *wire.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T, want *wire.TransportError", err)
	}
	if !te.Transient() {
		t.Errorf("fault lost its transience across the wire: %v", te)
	}
	if want := db.List(0).Range(0, 40); !reflect.DeepEqual(span, want) {
		t.Errorf("partial span diverges from the list prefix")
	}

	// A resilient wrapper retries from the first undelivered rank and
	// completes the span once the transient clears.
	res := subsys.Resilient(src, subsys.Policy{MaxRetries: 3, BaseBackoff: time.Microsecond})
	full, err := res.TryEntries(0, 100)
	if err != nil {
		t.Fatalf("resilient retry did not absorb the transient: %v", err)
	}
	if !reflect.DeepEqual(full, db.List(0).Range(0, 100)) {
		t.Errorf("retried span diverges from the list prefix")
	}
}

// flakyTransport injects faults at the HTTP layer: every per-path Nth
// request to a source endpoint is killed before the handler runs —
// either answered 500 or the connection hijacked and dropped — so the
// client sees real protocol and transport failures, not simulated ones.
type flakyTransport struct {
	h     http.Handler
	every int
	reset bool // hijack and drop instead of answering 500

	mu sync.Mutex
	n  int
}

func (f *flakyTransport) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/entries" || r.URL.Path == "/v1/grades" {
		f.mu.Lock()
		f.n++
		kill := f.n%f.every == 0
		f.mu.Unlock()
		if kill {
			if f.reset {
				if hj, ok := w.(http.Hijacker); ok {
					conn, _, err := hj.Hijack()
					if err == nil {
						conn.Close()
						return
					}
				}
			}
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
	}
	f.h.ServeHTTP(w, r)
}

// TestFaultSemantics pins the wire's fault story end to end: injected
// HTTP 500s and connection resets surface as transient typed errors
// that subsys.Resilient retries to bit-identical fault-free results and
// tallies — the PR 6 FaultSource determinism contract, now against a
// real network stack.
func TestFaultSemantics(t *testing.T) {
	db := testDB(t, 1000, 2, 14)
	local := localEngine(t, db)
	q := queryOf(db.M())
	want := mustQuery(t, local, q, middleware.TopN(10))

	for _, mode := range []struct {
		name  string
		reset bool
	}{{"HTTP500", false}, {"ConnReset", true}} {
		t.Run(mode.name, func(t *testing.T) {
			ss, err := wire.NewSourceServer(dbSources(db))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(&flakyTransport{h: ss, every: 7, reset: mode.reset})
			defer ts.Close()
			client, err := wire.Dial(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			// The typed error carries its transience classification.
			src, err := client.Source("A1")
			if err != nil {
				t.Fatal(err)
			}
			var sawTransient bool
			for i := 0; i < 7; i++ {
				if _, err := src.TryGrade(i); err != nil {
					var te *wire.TransportError
					if !errors.As(err, &te) {
						t.Fatalf("fault surfaced as %T, want *wire.TransportError", err)
					}
					if !te.Transient() {
						t.Fatalf("injected fault classified permanent: %v", te)
					}
					sawTransient = true
				}
			}
			if !sawTransient {
				t.Fatal("injection never fired")
			}

			// Under the resilience layer the engine sees none of it.
			subs := make([]subsys.Subsystem, 0, db.M())
			for _, rs := range client.Subsystems() {
				subs = append(subs, subsys.WithResilience(rs, subsys.Policy{
					MaxRetries: 5, BaseBackoff: time.Microsecond, Seed: 9,
				}))
			}
			eng, err := middleware.New(subs)
			if err != nil {
				t.Fatal(err)
			}
			got := mustQuery(t, eng, q, middleware.TopN(10))
			assertReportsEqual(t, want, got)
		})
	}
}

// TestPermanentFaultFailsFast pins the other half of the contract:
// without a resilience wrapper, a wire failure reaches the engine as
// one typed *subsys.SourceError naming the failing access — a clean
// fail-fast, never a panic.
func TestPermanentFaultFailsFast(t *testing.T) {
	db := testDB(t, 500, 2, 15)
	ss, err := wire.NewSourceServer(dbSources(db))
	if err != nil {
		t.Fatal(err)
	}
	// Kill every source request: the first access fails.
	ts := httptest.NewServer(&flakyTransport{h: ss, every: 1})
	defer ts.Close()
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	eng := wireEngine(t, client)
	_, err = eng.QueryString(context.Background(), queryOf(db.M()), middleware.TopN(5))
	if err == nil {
		t.Fatal("expected the evaluation to fail")
	}
	var se *subsys.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("failure surfaced as %T (%v), want *subsys.SourceError", err, err)
	}
	var te *wire.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("source error does not wrap the transport error: %v", err)
	}
}

// TestWedgedServerTimeout pins abandonment: a server that stalls forever
// cannot wedge a resilient client — the per-access timeout abandons the
// in-flight request and surfaces a typed *subsys.TimeoutError.
func TestWedgedServerTimeout(t *testing.T) {
	db := testDB(t, 200, 1, 16)
	ss, err := wire.NewSourceServer(dbSources(db))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	defer func() { once.Do(func() { close(release) }) }()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/entries", func(w http.ResponseWriter, r *http.Request) {
		// Wedge until the test releases or the client goes away.
		select {
		case <-release:
		case <-r.Context().Done():
		}
		http.Error(w, `{"error":"wedged"}`, http.StatusInternalServerError)
	})
	mux.Handle("/", ss)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	src, err := client.Source("A1")
	if err != nil {
		t.Fatal(err)
	}

	res := subsys.Resilient(src, subsys.Policy{PerAccessTimeout: 20 * time.Millisecond})
	start := time.Now()
	_, err = res.TryEntries(0, 4)
	if err == nil {
		t.Fatal("expected a timeout")
	}
	var toe *subsys.TimeoutError
	if !errors.As(err, &toe) {
		t.Fatalf("wedge surfaced as %T (%v), want *subsys.TimeoutError", err, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("abandonment took %v; the client wedged with the server", waited)
	}
	// Release the stalled handler so Close does not wait on it.
	once.Do(func() { close(release) })
}

// TestStreamDisconnectCancels pins server-side cancellation: a client
// that abandons the /v1/results cursor mid-stream promptly cancels the
// server-side evaluation — active evaluations drain to zero instead of
// leaking goroutines and pagination state.
func TestStreamDisconnectCancels(t *testing.T) {
	db := testDB(t, 5000, 2, 17)
	local := localEngine(t, db)
	qs := wire.NewQueryServer(local)
	ss, err := wire.NewSourceServer(dbSources(db), wire.WithEngine())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	ss.Register(mux)
	qs.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	for _, err := range client.Results(ctx, wire.QueryRequest{Query: queryOf(db.M()), K: 5}) {
		if err != nil {
			break // cancellation surfacing through the stream is fine
		}
		rows++
		if rows == 3 {
			cancel()
		}
	}
	cancel()
	if rows < 3 {
		t.Fatalf("stream delivered %d rows before cancellation, want ≥3", rows)
	}

	deadline := time.Now().Add(5 * time.Second)
	for qs.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still reports %d active evaluations after disconnect", qs.Active())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetErrorCrossesWire pins the error envelope of a remote
// evaluation: a budget stop comes back as a 422 with the partial spend
// attached, classified permanent.
func TestBudgetErrorCrossesWire(t *testing.T) {
	db := testDB(t, 2000, 2, 18)
	local := localEngine(t, db)
	qs := wire.NewQueryServer(local)
	ts := httptest.NewServer(qs)
	defer ts.Close()

	hc := ts.Client()
	// Dial needs /v1/meta, which a bare QueryServer does not serve; post
	// directly instead.
	body := `{"query":"A1 = \"*\" AND A2 = \"*\"","k":10,"budget":5}`
	resp, err := hc.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("budget stop answered %d, want 422", resp.StatusCode)
	}
	var f wire.Fault
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.Transient {
		t.Error("budget stop classified transient; retrying cannot help")
	}
	if f.Cost == nil || f.Cost.Sorted+f.Cost.Random == 0 {
		t.Errorf("budget stop lost its partial spend: %+v", f)
	}
}
