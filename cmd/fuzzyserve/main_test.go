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
// (buildMux) as started with -shard-plan weighted -cache 16 and a
// scheduler. The request policy flag is a default, not an override: a
// body that does not name it gets it, a body that names it wins. Which
// plan a request ran under is read off the result cache — it is part of
// an answer's cache key — and off the response's planned work, which
// only the weighted plan fills in. The tenant header
// bills a request only when the body or URL names no tenant, on both
// endpoints; that is read off the scheduler's per-tenant counters.
func TestServerDefaultsAndTenantHeader(t *testing.T) {
	db, err := scoredb.Generator{N: 800, M: 2, Law: scoredb.Uniform{}, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sched := fuzzydb.NewScheduler(fuzzydb.SchedulerConfig{MaxConcurrent: 4})
	mux, err := buildMux(db, wire.DefaultPage, 16, sched,
		fuzzydb.WithShardPlan(fuzzydb.ShardPlanWeighted))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// call makes one request, naming tenant (if any) in the header, and
	// returns the body of its 200.
	call := func(method, target, body, tenant string) []byte {
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
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s %s: status %d: %s", method, target, body, resp.StatusCode, out)
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
		t.Fatalf("a body naming no plan: cache %+v, planned work %v; want a miss under the weighted default", first.Cache, planned(first))
	}
	if same := query(`,"shard_plan":"weighted"`, ""); !same.Cache.Hit {
		t.Errorf("spelling the default out missed the cache: the body naming no plan did not run weighted")
	}
	if even := query(`,"shard_plan":"even"`, ""); even.Cache.Hit || planned(even) != 0 {
		t.Errorf(`"shard_plan":"even" did not override the weighted default: cache hit %t, planned work %v`, even.Cache.Hit, planned(even))
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
	want := map[string]int64{"": 3, "hdr-post": 1, "body": 1, "hdr-get": 1, "url": 1}
	if fmt.Sprint(admitted) != fmt.Sprint(want) {
		t.Errorf("admissions by tenant: %v, want %v", admitted, want)
	}
}
