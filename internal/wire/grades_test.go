package wire_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzydb/internal/core"
	"fuzzydb/internal/middleware"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// staticSubsystems is db as in-process subsystems A1…Am.
func staticSubsystems(db *scoredb.Database) []subsys.Subsystem {
	subs := make([]subsys.Subsystem, db.M())
	for i := range subs {
		s := subsys.NewStatic(listName(i), db.N())
		s.Set("*", db.List(i))
		subs[i] = s
	}
	return subs
}

// wrapAll applies wrap to every subsystem.
func wrapAll(subs []subsys.Subsystem, wrap func(subsys.Subsystem) subsys.Subsystem) []subsys.Subsystem {
	out := make([]subsys.Subsystem, len(subs))
	for i, s := range subs {
		out[i] = wrap(s)
	}
	return out
}

// serveSubsystems serves each subsystem's "*" source on loopback and
// dials it. The server shares one source per list across requests, so
// stateful (transient-fault) stacks get one server per evaluation.
func serveSubsystems(t *testing.T, subs []subsys.Subsystem, opts ...wire.ServerOption) *wire.Client {
	t.Helper()
	lists := make(map[string]subsys.Source, len(subs))
	for _, s := range subs {
		src, err := s.Query("*")
		if err != nil {
			t.Fatal(err)
		}
		lists[s.Attribute()] = src
	}
	ss, err := wire.NewSourceServer(lists, opts...)
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

func engineOver(t testing.TB, subs []subsys.Subsystem) *middleware.Middleware {
	t.Helper()
	eng, err := middleware.New(subs)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBatchedGatherEquivalence is the batched random-access contract:
// a wire-backed pipelined evaluation — whose gather phase is one
// /v1/grades round trip per chunk instead of one call per object —
// returns answers and per-list tallies bit-identical to the in-process
// serial evaluation, and when a source fails permanently the identical
// SourceError{List, Rank, Random}. Fault injection sits on the server
// (the batch handler scans fault sites per object) or on the client
// (FaultSource forwards the batch capability); transient plans are
// absorbed by Resilient retrying the undelivered remainder. The page of
// 64 caps batches below a list's misses, so a phase spans several
// chunks delivered in serial order.
func TestBatchedGatherEquivalence(t *testing.T) {
	db := testDB(t, 2000, 3, 21)
	q := queryOf(db.M())
	opts := []middleware.QueryOption{middleware.TopN(10)}
	piped := append(opts[:1:1], middleware.WithPrefetch(0))

	permanent := subsys.FaultPlan{Seed: 77, Rate: 0.02, Phase: subsys.FaultRandomAccess}
	transient := subsys.FaultPlan{Seed: 78, Rate: 0.1, Transient: 2}
	faulty := func(plan subsys.FaultPlan) func(subsys.Subsystem) subsys.Subsystem {
		return func(s subsys.Subsystem) subsys.Subsystem { return subsys.WithFaults(s, plan) }
	}
	resilient := func(s subsys.Subsystem) subsys.Subsystem {
		return subsys.WithResilience(s, subsys.Policy{MaxRetries: 2})
	}
	cases := []struct {
		name string
		// local builds the in-process reference stack; remote the stack
		// served across the wire, client the wrappers applied to the
		// remote subsystems on the near side.
		local, remote, client func(subsys.Subsystem) subsys.Subsystem
		wantErr               bool
	}{
		{name: "NoFaults"},
		{name: "PermanentOnServer", local: faulty(permanent), remote: faulty(permanent), wantErr: true},
		{name: "PermanentOnClient", local: faulty(permanent), client: faulty(permanent), wantErr: true},
		{name: "TransientOnServerUnderResilient", remote: faulty(transient), client: resilient},
		{name: "TransientOnClientUnderResilient",
			client: func(s subsys.Subsystem) subsys.Subsystem { return resilient(faulty(transient)(s)) }},
	}
	ident := func(s subsys.Subsystem) subsys.Subsystem { return s }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range []*func(subsys.Subsystem) subsys.Subsystem{&tc.local, &tc.remote, &tc.client} {
				if *f == nil {
					*f = ident
				}
			}
			want, wantErr := engineOver(t, wrapAll(staticSubsystems(db), tc.local)).
				QueryString(context.Background(), q, opts...)
			client := serveSubsystems(t, wrapAll(staticSubsystems(db), tc.remote), wire.WithPage(64))
			got, gotErr := engineOver(t, wrapAll(client.Subsystems(), tc.client)).
				QueryString(context.Background(), q, piped...)

			if tc.wantErr {
				var wse, gse *subsys.SourceError
				if !errors.As(wantErr, &wse) || !wse.Random {
					t.Fatalf("reference err = %v, want a random-access *SourceError (vacuous fault plan?)", wantErr)
				}
				if !errors.As(gotErr, &gse) {
					t.Fatalf("wire err = %v, want *SourceError", gotErr)
				}
				if gse.List != wse.List || gse.Rank != wse.Rank || gse.Random != wse.Random {
					t.Errorf("failure diverges: wire {list %d, rank %d, random %t}, serial {list %d, rank %d, random %t}",
						gse.List, gse.Rank, gse.Random, wse.List, wse.Rank, wse.Random)
				}
				return
			}
			if wantErr != nil || gotErr != nil {
				t.Fatalf("errors: serial %v, wire %v", wantErr, gotErr)
			}
			assertReportsEqual(t, want, got)
		})
	}
}

// countingTransport counts round trips per URL path.
type countingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if c.paths == nil {
		c.paths = make(map[string]int)
	}
	c.paths[r.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (c *countingTransport) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paths[path]
}

// TestGatherIssuesOneBatchPerList pins the round-trip count: A₀′ has one
// gather phase, so a two-list pipelined query issues at most one
// /v1/grades call per list — for a large k and for a k whose handful of
// probes is below the inline cutoff.
func TestGatherIssuesOneBatchPerList(t *testing.T) {
	db := testDB(t, 4000, 2, 22)
	ss, err := wire.NewSourceServer(dbSources(db))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	for _, k := range []int{25, 1} {
		ct := &countingTransport{}
		client, err := wire.Dial(ts.URL, wire.WithHTTPClient(&http.Client{Transport: ct}))
		if err != nil {
			t.Fatal(err)
		}
		rep := mustQuery(t, wireEngine(t, client), queryOf(2), middleware.TopN(k), middleware.WithPrefetch(0))
		if name := rep.Plan.Algorithm.Name(); name != "A0'" {
			t.Fatalf("planner chose %s; this test counts A0' gather phases", name)
		}
		if rep.Cost.Random == 0 {
			t.Fatalf("k=%d: no random access; nothing to batch", k)
		}
		if n := ct.count("/v1/grades"); n < 1 || n > 2 {
			t.Errorf("k=%d: %d /v1/grades calls for %d random accesses, want 1 or 2 (one per list)", k, n, rep.Cost.Random)
		}
	}
}

// TestSortedPhaseRoundTripBudget is the sorted side's twin of the test
// above, a count a later change cannot quietly lose: the pipelined
// executor opens each list's readahead at the depth A₀ expects to reach
// (≈253 ranks for N = 4096, m = 2, k = 10), so a two-list conjunction
// reads its lists in one /v1/entries call each — two more per list when
// the run outlasts the opening batch — where a window opening at 1 and
// doubling took ≈29. The tally and the answers are the serial
// executor's, and Report.Prefetch.Fetched accounts for the over-read:
// never less than the ranks paid for, never more than one window per
// list past them, and on this seed, where the opening batches cover the
// run, well under twice.
func TestSortedPhaseRoundTripBudget(t *testing.T) {
	const m, k = 2, 10
	for i, seed := range []uint64{26, 27, 28, 29} {
		db := testDB(t, 4096, m, seed)
		ss, err := wire.NewSourceServer(dbSources(db))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ss)
		t.Cleanup(ts.Close)
		ct := &countingTransport{}
		client, err := wire.Dial(ts.URL, wire.WithHTTPClient(&http.Client{Transport: ct}))
		if err != nil {
			t.Fatal(err)
		}
		want := mustQuery(t, localEngine(t, db), queryOf(m), middleware.TopN(k))
		got := mustQuery(t, wireEngine(t, client), queryOf(m), middleware.TopN(k), middleware.WithPrefetch(0))
		assertReportsEqual(t, want, got)
		if n := ct.count("/v1/entries"); n > 6 {
			t.Errorf("seed %d: %d /v1/entries calls for %d sorted accesses, want at most 6", seed, n, got.Cost.Sorted)
		}
		if got.Prefetch == nil {
			t.Fatalf("seed %d: no prefetch stats on a pipelined query", seed)
		}
		fetched, paid := got.Prefetch.Fetched, got.Cost.Sorted
		if fetched < paid || fetched > paid+m*subsys.DefaultPrefetchCap {
			t.Errorf("seed %d: %d ranks fetched for %d paid, want within [paid, paid + %d·%d]",
				seed, fetched, paid, m, subsys.DefaultPrefetchCap)
		}
		if i == 0 && (ct.count("/v1/entries") != m || fetched >= 2*paid) {
			t.Errorf("seed %d: %d /v1/entries calls, %d ranks fetched for %d paid; want one call per list and under twice the ranks",
				seed, ct.count("/v1/entries"), fetched, paid)
		}
	}
}

// TestCancellationMidBatch: cancelling a query while a /v1/grades batch
// is wedged on the server returns *core.AbandonedError promptly, and
// once the server lets go nothing the evaluation started is left
// running.
func TestCancellationMidBatch(t *testing.T) {
	db := testDB(t, 1500, 2, 24)
	ss, err := wire.NewSourceServer(dbSources(db))
	if err != nil {
		t.Fatal(err)
	}
	wedged := make(chan struct{}, 8) // one token per batch that arrived; a phase sends two
	release := make(chan struct{})
	var once sync.Once
	letGo := func() { once.Do(func() { close(release) }) }
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/grades", func(w http.ResponseWriter, r *http.Request) {
		wedged <- struct{}{}
		<-release
		http.Error(w, `{"error":"wedged"}`, http.StatusInternalServerError)
	})
	mux.Handle("/", ss)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer letGo() // before ts.Close, which waits for the handlers
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	eng := wireEngine(t, client)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := eng.QueryString(ctx, queryOf(2), middleware.TopN(10), middleware.WithPrefetch(0))
		done <- err
	}()
	<-wedged // a batch is in flight and stuck
	cancel()
	select {
	case err := <-done:
		var ab *core.AbandonedError
		if !errors.As(err, &ab) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v (%T), want *core.AbandonedError wrapping context.Canceled", err, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the evaluation did not return after cancellation; the wedged batch was not abandoned")
	}
	letGo()
	client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the query, %d after:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHostileSpanResponses: whatever a broken or lying server puts in a
// 200 entries or grades body, the client returns a typed
// *wire.TransportError and hands no value of it to the engine.
func TestHostileSpanResponses(t *testing.T) {
	// The meta of a server from before this protocol dropped "dense" and
	// "grades": the client ignores both.
	const meta = `{"n":100,"dense":true,"lists":["A1"],"page":50,"grades":true}`
	cases := []struct {
		name string
		path string // the endpoint the body answers
		body string
		meta string // the /v1/meta body; meta when empty
	}{
		{"entries: more objects than grades", "/v1/entries", `{"objects":[1,2,3],"grades":[0.9,0.8]}`, ""},
		{"entries: more grades than objects", "/v1/entries", `{"objects":[1],"grades":[0.9,0.8]}`, ""},
		{"entries: longer than requested", "/v1/entries", `{"objects":[1,2,3,4,5],"grades":[0.9,0.8,0.7,0.6,0.5]}`, ""},
		{"entries: grade above 1", "/v1/entries", `{"objects":[1,2],"grades":[1.5,0.8]}`, ""},
		{"entries: negative grade", "/v1/entries", `{"objects":[1,2],"grades":[0.9,-0.1]}`, ""},
		{"entries: NaN", "/v1/entries", `{"objects":[1],"grades":[NaN]}`, ""},
		{"entries: infinity", "/v1/entries", `{"objects":[1],"grades":[1e999]}`, ""},
		{"entries: grades increase", "/v1/entries", `{"objects":[1,2,3],"grades":[0.9,0.5,0.7]}`, ""},
		{"entries: object outside the dense universe", "/v1/entries", `{"objects":[1,100],"grades":[0.9,0.8]}`, ""},
		{"entries: negative object", "/v1/entries", `{"objects":[-1],"grades":[0.9]}`, ""},
		{"entries: object 100 of 100, meta without dense", "/v1/entries", `{"objects":[1,100],"grades":[0.9,0.8]}`,
			`{"n":100,"lists":["A1"],"page":50}`},
		{"entries: empty page without err", "/v1/entries", `{"objects":[],"grades":[]}`, ""},
		{"grades: longer than requested", "/v1/grades", `{"grades":[0.9,0.8,0.7,0.6]}`, ""},
		{"grades: shorter without err", "/v1/grades", `{"grades":[0.9,0.8]}`, ""},
		{"grades: complete with err", "/v1/grades", `{"grades":[0.9,0.8,0.7],"err":{"error":"x","transient":true}}`, ""},
		{"grades: grade above 1", "/v1/grades", `{"grades":[0.9,1.01,0.7]}`, ""},
		{"grades: negative grade", "/v1/grades", `{"grades":[0.9,0.8,-1]}`, ""},
		{"grades: NaN", "/v1/grades", `{"grades":[0.9,NaN,0.7]}`, ""},
		{"grades: negative infinity", "/v1/grades", `{"grades":[0.9,-1e999,0.7]}`, ""},
		{"grades: null", "/v1/grades", `{"grades":null}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if r.URL.Path == "/v1/meta" {
					_, _ = io.WriteString(w, cmp.Or(tc.meta, meta))
					return
				}
				_, _ = io.WriteString(w, tc.body)
			}))
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
			var n int
			if tc.path == "/v1/entries" {
				es, e := src.TryEntries(0, 3)
				n, err = len(es), e
			} else {
				out := []float64{-7, -7, -7}
				n, err = src.TryGrades([]int{4, 5, 6}, out)
				if !reflect.DeepEqual(out, []float64{-7, -7, -7}) {
					t.Errorf("out = %v: the client wrote values of a rejected response", out)
				}
			}
			var te *wire.TransportError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v (%T), want *wire.TransportError", err, err)
			}
			if n != 0 {
				t.Errorf("%d values delivered from a rejected response", n)
			}
		})
	}
}

// plainSource hides every face of a Source but the plain one.
type plainSource struct{ subsys.Source }

// TestGradesRequestValidation: the server answers a batch over its page
// and an object id outside the universe with a permanent 400 envelope;
// the same batch within bounds is served. It holds over bare lists and
// over sources that show nothing but the plain Source face.
func TestGradesRequestValidation(t *testing.T) {
	db := testDB(t, 100, 1, 25)
	plain := dbSources(db)
	for name, src := range plain {
		plain[name] = plainSource{src}
	}
	for name, lists := range map[string]map[string]subsys.Source{"lists": dbSources(db), "plain": plain} {
		t.Run(name, func(t *testing.T) { gradesRequestValidation(t, db, lists) })
	}
}

func gradesRequestValidation(t *testing.T, db *scoredb.Database, lists map[string]subsys.Source) {
	ss, err := wire.NewSourceServer(lists, wire.WithPage(4))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	post := func(body string) (int, wire.Fault, wire.GradesResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/grades", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var f wire.Fault
		var g wire.GradesResponse
		_ = json.NewDecoder(bytes.NewReader(raw)).Decode(&f)
		_ = json.NewDecoder(bytes.NewReader(raw)).Decode(&g)
		return resp.StatusCode, f, g
	}
	for _, tc := range []struct{ name, body string }{
		{"over the page", `{"list":"A1","objects":[1,2,3,4,5]}`},
		{"object past the universe", `{"list":"A1","objects":[1,100]}`},
		{"negative object", `{"list":"A1","objects":[-1]}`},
		{"malformed", `{"list":"A1","objects":"all"}`},
	} {
		status, f, _ := post(tc.body)
		if status != http.StatusBadRequest || f.Message == "" || f.Transient {
			t.Errorf("%s: status %d, envelope %+v; want a permanent 400", tc.name, status, f)
		}
	}
	if status, _, _ := post(`{"list":"nope","objects":[1]}`); status != http.StatusNotFound {
		t.Errorf("unknown list: status %d, want 404", status)
	}
	status, _, g := post(`{"list":"A1","objects":[3,0,99,3]}`)
	want := []float64{}
	for _, obj := range []int{3, 0, 99, 3} {
		want = append(want, subsys.FromList(db.List(0)).Grade(obj))
	}
	if status != http.StatusOK || g.Err != nil || !reflect.DeepEqual(g.Grades, want) {
		t.Errorf("valid batch: status %d, response %+v, want grades %v", status, g, want)
	}

	// The client maps the rejection to a permanent typed error.
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	src, _ := client.Source("A1")
	_, err = src.TryGrades([]int{1, 2, 3, 4, 5}, make([]float64, 5))
	var te *wire.TransportError
	if !errors.As(err, &te) || te.Status != http.StatusBadRequest || te.Transient() {
		t.Errorf("client err = %v, want a permanent 400 *wire.TransportError", err)
	}
}
