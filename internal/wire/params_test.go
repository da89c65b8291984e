package wire

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestResultsParamsRoundTripEveryField: GET /v1/results carries a
// QueryRequest flattened into URL parameters, written by the client
// (resultsParams) and parsed by the server (resultsRequest). Every field
// of QueryRequest — found by reflection, so a field added later cannot be
// forgotten on one side — must survive the trip, alone and together.
func TestResultsParamsRoundTripEveryField(t *testing.T) {
	roundTrip := func(t *testing.T, req QueryRequest) {
		t.Helper()
		got, err := resultsRequest(httptest.NewRequest("GET", "/v1/results?"+resultsParams(req), nil))
		if err != nil {
			t.Fatalf("server rejected the client's parameters %q: %v", resultsParams(req), err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("round trip lost something:\n sent %+v\n got  %+v\n via  %s", req, got, resultsParams(req))
		}
	}
	set := func(t *testing.T, f reflect.Value, name string) {
		t.Helper()
		switch f.Kind() {
		case reflect.String:
			f.SetString("a b&c=d")
		case reflect.Int:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(2.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
			f.Elem().SetInt(3)
		default:
			t.Fatalf("QueryRequest.%s has kind %s: teach this test (and resultsParams/resultsRequest) about it", name, f.Kind())
		}
	}
	var all QueryRequest
	typ := reflect.TypeOf(all)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		t.Run(name, func(t *testing.T) {
			one := QueryRequest{Query: "q"} // the server refuses a request without q
			set(t, reflect.ValueOf(&one).Elem().Field(i), name)
			roundTrip(t, one)
		})
		set(t, reflect.ValueOf(&all).Elem().Field(i), name)
	}
	roundTrip(t, all)
}

// TestResultsParamsFirstErrorIsStable: with several malformed parameters
// the server reports the first in declaration order (k, parallelism,
// shards, degrade, budget, prefetch, steal), the same one on every
// request — the answer used to follow a map's iteration order.
func TestResultsParamsFirstErrorIsStable(t *testing.T) {
	for _, tc := range []struct{ params, want string }{
		{"q=x&k=bad&shards=bad", "bad k"},
		{"q=x&shards=bad&k=bad", "bad k"},
		{"q=x&degrade=bad&parallelism=bad&steal=bad", "bad parallelism"},
		{"q=x&prefetch=bad&degrade=bad", "bad degrade"},
	} {
		for i := 0; i < 20; i++ {
			_, err := resultsRequest(httptest.NewRequest("GET", "/v1/results?"+tc.params, nil))
			if err == nil || !strings.HasPrefix(err.Error(), tc.want+":") {
				t.Fatalf("%s, request %d: error %v, want %q", tc.params, i, err, tc.want)
			}
		}
	}
}
