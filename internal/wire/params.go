package wire

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"reflect"
	"slices"
	"strings"
)

// The URL form of a QueryRequest. GET /v1/results carries the request as
// URL parameters: each field under its JSON name (the query itself as
// q), its value the field's JSON value — a string without its quotes —
// and zero values left out, exactly the names, values and omissions of
// the JSON body of POST /v1/query. Encoder, decoder and range check walk
// the struct's JSON tags, so a field added to middleware.Request is on
// the URL the moment it is on the wire, and no parameter list is kept
// here to fall out of date.

// param is one wire field of a QueryRequest: its URL name and struct index.
type param struct {
	name  string
	index int
}

// params lists them in declaration order, worked out once: the walk
// below runs on every request a server decodes.
var params = func() (ps []param) {
	t := reflect.TypeOf(QueryRequest{})
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		switch name {
		case "", "-":
			continue // in-process only
		case "query":
			name = "q"
		}
		ps = append(ps, param{name, i})
	}
	return ps
}()

// eachParam visits the wire fields of req in declaration order — which is
// therefore the order in which a request's first malformed parameter,
// and then its first out-of-range one, is found.
func eachParam(req *QueryRequest, visit func(name string, f reflect.Value) error) error {
	v := reflect.ValueOf(req).Elem()
	for _, p := range params {
		if err := visit(p.name, v.Field(p.index)); err != nil {
			return err
		}
	}
	return nil
}

// encodeParams flattens req onto its URL form.
func encodeParams(req QueryRequest) (url.Values, error) {
	vals := url.Values{}
	return vals, eachParam(&req, func(name string, f reflect.Value) error {
		if f.IsZero() {
			return nil
		}
		raw, err := json.Marshal(f.Interface())
		text := string(raw)
		if err == nil && raw[0] == '"' {
			err = json.Unmarshal(raw, &text)
		}
		vals.Set(name, text)
		return err
	})
}

// decodeParams decodes the URL form onto req: an absent (or empty)
// parameter keeps req's value, a present one wins, and one that names
// no field is refused (the alphabetically first, so the error is
// stable).
func decodeParams(vals url.Values, req *QueryRequest) error {
	unknown := ""
	for name := range vals {
		if !slices.ContainsFunc(params, func(p param) bool { return p.name == name }) && (unknown == "" || name < unknown) {
			unknown = name
		}
	}
	if unknown != "" {
		return fmt.Errorf("unknown parameter %q", unknown)
	}
	return eachParam(req, func(name string, f reflect.Value) error {
		raw := []byte(vals.Get(name))
		if len(raw) == 0 {
			return nil
		}
		if _, text := f.Addr().Interface().(encoding.TextUnmarshaler); text || f.Kind() == reflect.String {
			raw, _ = json.Marshal(string(raw)) // a string always marshals
		}
		f.SetZero() // a pointer field gets a fresh target, never req's own
		if err := json.Unmarshal(raw, f.Addr().Interface()); err != nil {
			return fmt.Errorf("bad %s: %v", name, err)
		}
		return nil
	})
}

// checkRequest is the boundary check of a decoded request, whichever
// form it arrived in: it must name a query, and no number in it may be
// negative. Before this check such a number read as "engine default"; a
// request that says k=-3 is wrong, not defaulted.
func checkRequest(req *QueryRequest) error {
	if req.Query == "" {
		return errors.New("empty query")
	}
	return eachParam(req, func(name string, f reflect.Value) error {
		if f.Kind() == reflect.Pointer && !f.IsNil() {
			f = f.Elem()
		}
		if (f.CanInt() && f.Int() < 0) || (f.CanFloat() && f.Float() < 0) {
			return fmt.Errorf("bad %s: %v is negative", name, f.Interface())
		}
		return nil
	})
}
