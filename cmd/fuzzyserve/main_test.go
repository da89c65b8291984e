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
// (buildMux) as started with -cache 16 and a scheduler. A request is a
// cache miss, and the same request again a hit. shards and shard_plan
// name no field, so a body naming either is a 400 that says so. The
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
		body := call("POST", "/v1/query", `{"query":"A1 = \"*\" AND A2 = \"*\""`+fields+`}`, tenant)
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return out
	}
	if first := query("", ""); first.Cache == nil || first.Cache.Hit {
		t.Fatalf("a first body: cache %+v, want a miss", first.Cache)
	}
	if same := query("", ""); !same.Cache.Hit {
		t.Errorf("the same body again missed the cache")
	}
	for _, name := range []string{"shards", "shard_plan"} {
		body := `{"query":"A1 = \"*\"","` + name + `":4}`
		if status, out := send("POST", "/v1/query", body, ""); status != http.StatusBadRequest || !strings.Contains(string(out), `\"`+name+`\"`) {
			t.Errorf("a body naming %q: status %d %s, want a 400 naming it", name, status, out)
		}
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
