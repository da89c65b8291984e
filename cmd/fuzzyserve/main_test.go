package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"fuzzydb"

	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/wire"
)

// TestServerDefaultsAndTenantHeader drives the handler fuzzyserve serves
// (buildMux) as started with -cache 16 and a scheduler. A request that
// names only its shards gets the engine's default cut: the static
// subsystems serve grade sketches, so the response carries planned work
// per shard, and the same request again is a cache hit. shard_plan names
// no field, so a body naming it is a 400 that says so. The
// tenant header bills a request only when the body or URL names no
// tenant, on both endpoints; that is read off the scheduler's
// per-tenant counters.
func TestServerDefaultsAndTenantHeader(t *testing.T) {
	db, err := scoredb.Generator{N: 800, M: 2, Law: scoredb.Uniform{}, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sched := fuzzydb.NewScheduler(fuzzydb.SchedulerConfig{MaxConcurrent: 4})
	mux, err := buildMux(db, wire.DefaultPage, 16, sched)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// send makes one request, naming tenant (if any) in the header, and
	// returns its status and body.
	send := func(method, target, body, tenant string) (int, []byte) {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+target, strings.NewReader(body))
		if tenant != "" {
			req.Header.Set(wire.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	// call is send for a request that must succeed: the body of its 200.
	call := func(method, target, body, tenant string) []byte {
		t.Helper()
		status, out := send(method, target, body, tenant)
		if status != http.StatusOK {
			t.Fatalf("%s %s %s: status %d: %s", method, target, body, status, out)
		}
		return out
	}
	query := func(fields, tenant string) (out wire.QueryResponse) {
		t.Helper()
		body := call("POST", "/v1/query", `{"query":"A1 = \"*\" AND A2 = \"*\"","shards":4`+fields+`}`, tenant)
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return out
	}
	planned := func(r wire.QueryResponse) (sum float64) {
		for _, d := range r.ShardDetails {
			sum += d.Planned
		}
		return sum
	}

	first := query("", "")
	if first.Cache == nil || first.Cache.Hit || planned(first) == 0 {
		t.Fatalf("a sharded body: cache %+v, planned work %v; want a miss cut by the sketches", first.Cache, planned(first))
	}
	if same := query("", ""); !same.Cache.Hit {
		t.Errorf("the same sharded body again missed the cache")
	}
	if status, out := send("POST", "/v1/query", `{"query":"A1 = \"*\"","shards":4,"shard_plan":"even"}`, ""); status != http.StatusBadRequest || !strings.Contains(string(out), "shard_plan") {
		t.Errorf(`a body naming "shard_plan": status %d %s, want a 400 naming it`, status, out)
	}

	results := "/v1/results?q=" + url.QueryEscape(`A1 = "*"`) + "&k=2"
	query(`,"k":3`, "hdr-post")
	query(`,"k":3,"tenant":"body"`, "ignored")
	call("GET", results, "", "hdr-get")
	call("GET", results+"&tenant=url", "", "ignored")
	admitted := map[string]int64{}
	for _, st := range sched.Stats() {
		admitted[st.Tenant] = st.Admitted
	}
	want := map[string]int64{"": 2, "hdr-post": 1, "body": 1, "hdr-get": 1, "url": 1}
	if fmt.Sprint(admitted) != fmt.Sprint(want) {
		t.Errorf("admissions by tenant: %v, want %v", admitted, want)
	}
}
