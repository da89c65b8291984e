package wire

import (
	"encoding"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/middleware"
)

// setSample gives field i of a request a value that is not its zero, not
// any other field's sample, and hard on a URL (spaces, & and = in
// strings).
func setSample(t *testing.T, f reflect.Value, i int) {
	t.Helper()
	if _, isText := f.Addr().Interface().(encoding.TextUnmarshaler); isText {
		f.SetInt(1) // the text forms are an enumeration: take its second name
		return
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(fmt.Sprintf("a b&c=d %d", i))
	case reflect.Int:
		f.SetInt(int64(i + 2))
	case reflect.Float64:
		f.SetFloat(float64(i) + 0.5)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
		f.Elem().SetInt(int64(i + 2))
	default:
		t.Fatalf("a QueryRequest field has kind %s: teach this test about it", f.Kind())
	}
}

// optionSink is where the census applies options when it counts their
// allocations: a package variable, so the request itself is not one.
var optionSink QueryRequest

// TestResultsParamsRoundTripEveryField is the census of the request's
// spellings. middleware.Request is declared once; every exported field of
// it — found by reflection, so a field added later cannot be forgotten in
// one place — must
//
//   - if it has a JSON name, survive the JSON body of POST /v1/query and
//     the URL form of GET /v1/results, alone and together with the rest;
//   - have a fuzzyquery flag (looked up in that command's committed -h
//     output) or sit in notAFlag;
//   - be set by a request option, which changes that field of a zero
//     request and no other and allocates nothing when applied, or sit in
//     noOption.
func TestResultsParamsRoundTripEveryField(t *testing.T) {
	roundTrip := func(t *testing.T, req QueryRequest) {
		t.Helper()
		vals, err := encodeParams(req)
		if err != nil {
			t.Fatal(err)
		}
		var got QueryRequest
		if err := decodeParams(vals, &got); err != nil {
			t.Fatalf("server rejected the client's parameters %q: %v", vals.Encode(), err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("URL round trip lost something:\n sent %+v\n got  %+v\n via  %s", req, got, vals.Encode())
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got = QueryRequest{}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("server rejected the client's body %s: %v", body, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("JSON round trip lost something:\n sent %+v\n got  %+v\n via  %s", req, got, body)
		}
	}

	// Field → fuzzyquery flag, where the flag is not the JSON name with
	// dashes; and the fields that are deliberately not flags.
	flagNamed := map[string]string{"Query": "q", "Parallelism": "p"}
	notAFlag := map[string]bool{"Algorithm": true, "Model": true} // values, not text: in-process only
	noOption := map[string]bool{"Query": true}                    // every entry point takes it as an argument
	help, err := os.ReadFile("../../cmd/fuzzyquery/testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	options := map[string]middleware.QueryOption{
		"K":           middleware.TopN(7),
		"Parallelism": middleware.WithParallelism(3),
		"Shards":      middleware.WithShards(4),
		"Budget":      middleware.WithAccessBudget(99),
		"Prefetch":    middleware.WithPrefetch(0),
		"Degrade":     middleware.WithDegradedLists(1),
		"Tenant":      middleware.WithTenant("gold"),
		"Algorithm":   middleware.WithAlgorithm(core.A0{}),
		"Model":       middleware.WithCostModel(cost.Model{C1: 1, C2: 5}),
	}

	var all QueryRequest
	typ := reflect.TypeOf(all)
	wireFields := 0
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if !field.IsExported() {
			continue
		}
		jsonName, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		if jsonName == "" {
			t.Errorf("Request.%s has no JSON tag: name it, or tag it \"-\" to keep it off the wire", field.Name)
		}
		t.Run(field.Name, func(t *testing.T) {
			if jsonName != "-" {
				one := QueryRequest{}
				setSample(t, reflect.ValueOf(&one).Elem().Field(i), i)
				roundTrip(t, one)
			}

			flagName, ok := flagNamed[field.Name]
			if !ok {
				flagName = strings.ReplaceAll(jsonName, "_", "-")
			}
			hasFlag := strings.Contains(string(help), "\n  -"+flagName+" ") || strings.Contains(string(help), "\n  -"+flagName+"\n")
			if hasFlag == notAFlag[field.Name] {
				t.Errorf("fuzzyquery flag -%s present: %t, listed as not a flag: %t — bind the flag in cmd/fuzzyquery or list the field", flagName, hasFlag, notAFlag[field.Name])
			}

			opt, ok := options[field.Name]
			if ok == noOption[field.Name] {
				t.Errorf("a request option sets Request.%s: %t, listed as having none: %t", field.Name, ok, noOption[field.Name])
			}
			if !ok {
				return
			}
			var req QueryRequest
			opt(&req)
			v := reflect.ValueOf(req)
			for j := 0; j < v.NumField(); j++ {
				if changed := !v.Field(j).IsZero(); changed != (j == i) {
					t.Errorf("the option for %s: field %s changed: %t", field.Name, typ.Field(j).Name, changed)
				}
			}
			if n := testing.AllocsPerRun(100, func() { opt(&optionSink) }); n != 0 {
				t.Errorf("applying the option for %s allocates %v objects per request, want 0", field.Name, n)
			}
		})
		if jsonName != "-" {
			wireFields++
			setSample(t, reflect.ValueOf(&all).Elem().Field(i), i)
		}
	}
	roundTrip(t, all)
	// No new knob rode in with the refactor that made knobs cheap.
	if wireFields != 8 || len(options) != 9 {
		t.Errorf("%d wire fields and %d request options, want 8 and 9: a new knob needs its own justification (and this line updated)", wireFields, len(options))
	}
}

// decodeOnto runs the server's decode for one request: the URL form when
// body is empty, the JSON body otherwise.
func decodeOnto(s *QueryServer, params, body string, header http.Header) (QueryRequest, *httptest.ResponseRecorder) {
	r := httptest.NewRequest("GET", "/v1/results?"+params, nil)
	if body != "" {
		r = httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
	}
	for k, v := range header {
		r.Header[k] = v
	}
	w := httptest.NewRecorder()
	req, _ := s.decode(w, r)
	return req, w
}

// TestResultsParamsFirstErrorIsStable is the boundary table of both
// endpoints: what GET /v1/results refuses in its URL form and POST
// /v1/query in its JSON body, each a 400 whose message contains want.
// Before Request was one struct, a misspelt plan name evaluated as even
// and a negative number as the engine default, silently.
//
// With several bad values the one reported is stable, the same on every
// request (it used to follow a map's iteration order): the first
// malformed one in Request's declaration order — k, parallelism, shards,
// budget, prefetch, degrade — and, when everything parses,
// the first out-of-range one in the same order. A name that is no field
// is refused before any value is read.
func TestResultsParamsFirstErrorIsStable(t *testing.T) {
	s := NewQueryServer(nil)
	for _, tc := range []struct{ params, body, want string }{
		{params: "q=x&k=bad&shards=bad", want: "bad k:"},
		{params: "q=x&shards=bad&k=bad", want: "bad k:"},
		{params: "q=x&degrade=bad&parallelism=bad", want: "bad parallelism:"},
		{params: "q=x&steal=true&k=bad", body: `{"query":"x","steal":true}`, want: `"steal"`},
		{params: "q=x&zz=1&steal=bad", want: `unknown parameter "steal"`},
		{params: "q=x&prefetch=bad&degrade=bad", want: "bad prefetch:"},
		{params: "q=x&degrade=bad&budget=bad", want: "bad budget:"},
		{params: "q=x&k=-1&shards=bad", want: "bad shards:"}, // malformed before out of range
		{params: "k=3", body: `{"k":3}`, want: "empty query"},
		{params: "q=x&shard_plan=weighted&k=bad", body: `{"query":"x","shard_plan":"weighted"}`, want: `"shard_plan"`},
		{params: "q=x&shard_plan=even", body: `{"query":"x","shards":4,"shard_plan":"even"}`, want: `"shard_plan"`},
		{params: "q=x&k=-1", body: `{"query":"x","k":-1}`, want: "bad k: -1"},
		{params: "q=x&parallelism=-2", body: `{"query":"x","parallelism":-2}`, want: "bad parallelism: -2"},
		{params: "q=x&shards=-4", body: `{"query":"x","shards":-4}`, want: "bad shards: -4"},
		{params: "q=x&budget=-0.5", body: `{"query":"x","budget":-0.5}`, want: "bad budget: -0.5"},
		{params: "q=x&budget=NaN", want: "bad budget:"}, // what a JSON body cannot say, the URL cannot either
		{params: "q=x&prefetch=-1", body: `{"query":"x","prefetch":-1}`, want: "bad prefetch: -1"},
		{params: "q=x&degrade=-1", body: `{"query":"x","degrade":-1}`, want: "bad degrade: -1"},
		{params: "q=x&degrade=-1&k=-7", body: `{"query":"x","degrade":-1,"k":-7}`, want: "bad k: -7"},
	} {
		for i := 0; i < 20; i++ {
			forms := map[string]string{"GET " + tc.params: ""}
			if tc.body != "" {
				forms["POST "+tc.body] = tc.body
			}
			for form, body := range forms {
				_, w := decodeOnto(s, tc.params, body, nil)
				var f Fault
				if err := json.Unmarshal(w.Body.Bytes(), &f); err != nil {
					t.Fatalf("%s: no fault envelope in %q: %v", form, w.Body, err)
				}
				if w.Code != http.StatusBadRequest || !strings.Contains(f.Message, tc.want) {
					t.Fatalf("%s, request %d: status %d, error %q, want 400 %q", form, i, w.Code, f.Message, tc.want)
				}
			}
		}
	}
}

// TestRequestTenantHeader: a request decodes onto a zero request — an
// absent name is the engine default, a present one wins — on both
// endpoints, and the tenant header stands in only for an absent tenant.
func TestRequestTenantHeader(t *testing.T) {
	s := NewQueryServer(nil)
	nine := 9
	header := http.Header{TenantHeader: {"from-header"}}
	for _, tc := range []struct {
		name, params, body string
		header             http.Header
		want               QueryRequest
	}{
		{"absent names stay zero", "q=x&shards=4&prefetch=9", `{"query":"x","shards":4,"prefetch":9}`, nil,
			QueryRequest{Query: "x", Shards: 4, Prefetch: &nine}},
		{"header names the tenant", "q=x", `{"query":"x"}`, header,
			QueryRequest{Query: "x", Tenant: "from-header"}},
		{"request's tenant wins", "q=x&tenant=mine", `{"query":"x","tenant":"mine"}`, header,
			QueryRequest{Query: "x", Tenant: "mine"}},
	} {
		for _, body := range []string{"", tc.body} {
			got, w := decodeOnto(s, tc.params, body, tc.header)
			if w.Code != http.StatusOK || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s (body %q): status %d %s\n got  %+v\n want %+v", tc.name, body, w.Code, w.Body, got, tc.want)
			}
		}
	}
}

// FuzzRequestParams fuzzes the URL decoder, which reads outside input:
// arbitrary parameters never panic it, whatever it accepts passes the
// boundary check or is refused with an error, and every request the
// client can encode — the same requests it can send as a JSON body —
// decodes to itself.
func FuzzRequestParams(f *testing.F) {
	f.Add("q=x&k=bad&shards=bad", "x", 3, 2, 4, 2.5, 0, 1, "gold")
	f.Add("q=x&degrade=bad&parallelism=bad&steal=bad", "a b&c=d", 0, 0, 0, 0.0, -1, 0, "")
	f.Add("q=x&shard_plan=weightd&budget=NaN&prefetch=-1", `A1 = "*" AND A2 = "*"`, 10, 1, 1, 5000.0, 7, 2, "a b&c=d")
	f.Add("q=%zz&k=1e9&steal=T;tenant=%00", "", -1, -2, -3, -0.5, 1<<40, -1, "\xff")
	f.Fuzz(func(t *testing.T, raw, query string, k, parallelism, shards int, budget float64, prefetch, degrade int, tenant string) {
		vals, _ := url.ParseQuery(raw) // like r.URL.Query(): keep what parsed
		var hostile QueryRequest
		if err := decodeParams(vals, &hostile); err == nil {
			_ = checkRequest(&hostile)
		}

		req := QueryRequest{Query: query, K: k, Parallelism: parallelism, Shards: shards,
			Budget: budget, Degrade: degrade, Tenant: tenant}
		if prefetch >= 0 {
			req.Prefetch = &prefetch
		}
		if !utf8.ValidString(query) || !utf8.ValidString(tenant) {
			return // JSON text is UTF-8: either form carries such a string only approximately
		}
		vals, err := encodeParams(req)
		if _, bodyErr := json.Marshal(req); err != nil || bodyErr != nil {
			if (err != nil) != (bodyErr != nil) {
				t.Fatalf("%+v: as a URL: %v; as a body: %v — one of the two forms can say what the other cannot", req, err, bodyErr)
			}
			return // NaN or an infinity
		}
		vals, err = url.ParseQuery(vals.Encode())
		if err != nil {
			t.Fatalf("the client wrote a URL the server cannot split: %v", err)
		}
		var got QueryRequest
		if err := decodeParams(vals, &got); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("decode(encode(r)) != r:\n sent %+v\n got  %+v (%v)\n via  %s", req, got, err, vals.Encode())
		}
	})
}
