package wire_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fuzzydb/internal/cost"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// endlessServer answers /v1/meta honestly and every other path with a
// 200 whose body is prefix followed by filler for as long as the client
// keeps reading.
func endlessServer(t *testing.T, prefix, filler string) *wire.Client {
	t.Helper()
	chunk := bytes.Repeat([]byte(filler), 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/meta" {
			_, _ = io.WriteString(w, `{"n":100,"dense":true,"lists":["A1"],"page":50,"grades":true,"engine":true}`)
			return
		}
		_, _ = io.WriteString(w, prefix)
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the client hung up
			}
		}
	}))
	t.Cleanup(ts.Close)
	client, err := wire.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

// promptly fails the test if f has not returned well within the time an
// unbounded read of an endless body would take (forever).
func promptly(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the client is still reading an endless response")
	}
}

// wantTooLong asserts the permanent typed error of an over-long body.
func wantTooLong(t *testing.T, err error) {
	t.Helper()
	var te *wire.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *wire.TransportError", err, err)
	}
	if te.Transient() {
		t.Errorf("%v is transient: retrying an over-long response only reads it again", te)
	}
}

// TestEndlessResponseBodies: a broken or hostile server that never ends
// a 200 body cannot make the client allocate without limit. Every access
// returns a permanent *wire.TransportError promptly, delivers nothing of
// the partial body, and leaves the list's Section 5 tally untouched.
func TestEndlessResponseBodies(t *testing.T) {
	t.Run("entries", func(t *testing.T) {
		src, err := endlessServer(t, `{"objects":[`, `0,`).Source("A1")
		if err != nil {
			t.Fatal(err)
		}
		list := subsys.Count(src)
		var delivered bool
		promptly(t, func() { _, delivered = list.EntryAt(0) })
		wantTooLong(t, list.Err())
		if delivered {
			t.Error("an entry was delivered from an endless span")
		}
		if c := list.Cost(); c != (cost.Cost{}) {
			t.Errorf("tally %v after a rejected span, want zero", c)
		}
	})
	t.Run("grades", func(t *testing.T) {
		src, err := endlessServer(t, `{"grades":[`, `0.5,`).Source("A1")
		if err != nil {
			t.Fatal(err)
		}
		out := []float64{-7, -7, -7}
		var n int
		promptly(t, func() { n, err = src.TryGrades([]int{4, 5, 6}, out) })
		wantTooLong(t, err)
		if n != 0 || out[0] != -7 {
			t.Errorf("n=%d out=%v: values of a rejected response delivered", n, out)
		}
	})
	t.Run("query", func(t *testing.T) {
		client := endlessServer(t, `{"results":[`, `{"object":0,"grade":0.5},`)
		var err error
		promptly(t, func() {
			_, err = client.Query(context.Background(), wire.QueryRequest{Query: `A1 = "*"`})
		})
		wantTooLong(t, err)
	})
	t.Run("results row", func(t *testing.T) {
		client := endlessServer(t, `{"object":1,"grade":0.9}`+"\n"+`{"object":2,"grade":0.8,"pad":"`, `x`)
		var got []wire.Result
		var last error
		promptly(t, func() {
			for r, err := range client.Results(context.Background(), wire.QueryRequest{Query: `A1 = "*"`}) {
				if err != nil {
					last = err
					break
				}
				got = append(got, r)
			}
		})
		wantTooLong(t, last)
		if len(got) != 1 || got[0].Object != 1 {
			t.Errorf("rows before the endless one = %v, want just object 1", got)
		}
	})
}
