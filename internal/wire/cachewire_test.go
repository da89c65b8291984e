package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/middleware"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// postJSON posts body to url and decodes the response into out.
func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestQueryCacheOverWire: a server whose engine carries a result cache
// reports cache handling in the /v1/query response — a miss on the
// first request, then a hit with identical results and the saved cost.
func TestQueryCacheOverWire(t *testing.T) {
	db := testDB(t, 600, 3, 91)
	subs := make([]subsys.Subsystem, db.M())
	for i := 0; i < db.M(); i++ {
		s := subsys.NewStatic(listName(i), db.N())
		s.Set("*", db.List(i))
		subs[i] = s
	}
	eng, err := middleware.New(subs, middleware.WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wire.NewQueryServer(eng))
	t.Cleanup(ts.Close)

	req := wire.QueryRequest{Query: queryOf(3), K: 10}
	var first, second wire.QueryResponse
	postJSON(t, ts.URL+"/v1/query", req, &first)
	postJSON(t, ts.URL+"/v1/query", req, &second)

	if first.Cache == nil || first.Cache.Hit {
		t.Fatalf("first response cache = %+v, want recorded miss", first.Cache)
	}
	if second.Cache == nil || !second.Cache.Hit {
		t.Fatalf("second response cache = %+v, want hit", second.Cache)
	}
	if second.Cache.SavedCost == nil || *second.Cache.SavedCost != first.Cost {
		t.Fatalf("saved cost = %v, want the original spend %v", second.Cache.SavedCost, first.Cost)
	}
	if !reflect.DeepEqual(second.Results, first.Results) {
		t.Fatalf("hit results diverge:\nfirst:  %v\nsecond: %v", first.Results, second.Results)
	}
	if second.Cost != first.Cost {
		t.Fatalf("hit tallies %v != original %v", second.Cost, first.Cost)
	}
}

// TestQueryCacheOverWireMutable: over mutable lists, a grade raised
// past the cached k-th grade between two requests comes back repaired —
// a miss whose cost is the raised object's m−1 other grades — and a
// third request is a hit on the repaired answer.
func TestQueryCacheOverWireMutable(t *testing.T) {
	const m = 3
	db := testDB(t, 600, m, 93)
	subs := make([]subsys.Subsystem, m)
	muts := make([]*subsys.Mutable, m)
	for i := range muts {
		muts[i] = subsys.NewMutable(listName(i), db.N(), 0)
		muts[i].Set("*", db.List(i))
		subs[i] = muts[i]
	}
	eng, err := middleware.New(subs, middleware.WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wire.NewQueryServer(eng))
	t.Cleanup(ts.Close)

	req := wire.QueryRequest{Query: queryOf(m), K: 10}
	var first, second, third wire.QueryResponse
	postJSON(t, ts.URL+"/v1/query", req, &first)
	in := make(map[int]bool, len(first.Results))
	for _, r := range first.Results {
		in[r.Object] = true
	}
	outsider := 0
	for in[outsider] {
		outsider++
	}
	if err := muts[0].UpdateGrade("*", outsider, 1); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/query", req, &second)
	postJSON(t, ts.URL+"/v1/query", req, &third)

	if second.Cache == nil || second.Cache.Hit || !second.Cache.Repaired {
		t.Fatalf("second response cache = %+v, want a repair", second.Cache)
	}
	if want := (wire.Cost{Sorted: 0, Random: m - 1}); second.Cost != want {
		t.Fatalf("repair cost %v, want %v", second.Cost, want)
	}
	if second.Cache.SavedCost != nil {
		t.Fatalf("a repair reports a saved cost: %v", *second.Cache.SavedCost)
	}
	if third.Cache == nil || !third.Cache.Hit || third.Cache.Repaired {
		t.Fatalf("third response cache = %+v, want a hit", third.Cache)
	}
	if !reflect.DeepEqual(third.Results, second.Results) {
		t.Fatalf("hit results diverge from the repaired ones:\nrepaired: %v\nhit:      %v", second.Results, third.Results)
	}
	oracle, err := middleware.New(subs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.QueryString(context.Background(), req.Query, middleware.TopN(req.K))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != len(second.Results) {
		t.Fatalf("repaired answer %v, recompute %v", second.Results, want.Results)
	}
	for i, r := range want.Results {
		if second.Results[i].Object != r.Object || second.Results[i].Grade != r.Grade {
			t.Fatalf("repaired answer %v, recompute %v", second.Results, want.Results)
		}
	}
}

// wedgedSource wedges sorted and random access until the bound request
// context is canceled — a stand-in for a hung backend that only the
// per-request context can unstick.
type wedgedSource struct {
	src      subsys.Source
	mu       sync.Mutex
	ctx      context.Context
	released chan struct{}
}

func newWedgedSource(src subsys.Source) *wedgedSource {
	return &wedgedSource{src: src, ctx: context.Background(), released: make(chan struct{}, 4)}
}

func (ws *wedgedSource) BindContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	ws.mu.Lock()
	ws.ctx = ctx
	ws.mu.Unlock()
}

func (ws *wedgedSource) wedge() {
	ws.mu.Lock()
	ctx := ws.ctx
	ws.mu.Unlock()
	<-ctx.Done()
	ws.released <- struct{}{}
}

func (ws *wedgedSource) Len() int                       { return ws.src.Len() }
func (ws *wedgedSource) Entry(rank int) gradedset.Entry { return ws.src.Entry(rank) }
func (ws *wedgedSource) Entries(lo, hi int) []gradedset.Entry {
	ws.wedge()
	return ws.src.Entries(lo, hi)
}
func (ws *wedgedSource) Grade(obj int) float64 {
	ws.wedge()
	return ws.src.Grade(obj)
}

// TestSourceRPCDisconnectCancels: the raw source RPCs run under the
// client's request context the way /v1/query does — when the client
// disconnects mid-call, the handler stops waiting AND the wedged
// backend access underneath is released through the bound context.
func TestSourceRPCDisconnectCancels(t *testing.T) {
	db := testDB(t, 50, 1, 97)
	ws := newWedgedSource(subsys.FromList(db.List(0)))
	ss, err := wire.NewSourceServer(map[string]subsys.Source{"A1": ws})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	t.Cleanup(ts.Close)

	calls := []struct {
		name string
		path string
		body any
	}{
		{"grade", "/v1/grades", wire.GradesRequest{List: "A1", Objects: []int{3}}},
		{"entries", "/v1/entries", wire.EntriesRequest{List: "A1", Lo: 0, Hi: 10}},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+tc.path, bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			start := time.Now()
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
				t.Fatal("wedged call completed")
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("handler held the connection %v after disconnect", elapsed)
			}
			select {
			case <-ws.released:
				// The backend access observed the cancellation.
			case <-time.After(2 * time.Second):
				t.Fatal("backend access never released: request context not bound")
			}
		})
	}
}
