package wire

import (
	"encoding/json"
	"testing"
)

// FuzzEntriesResponse fuzzes the client's check of a 200 /v1/entries
// body, the span a server hands the engine: whatever the body, decoding
// it and converting it with entries(max, n) never panics, and a span it
// accepts holds at most max entries, objects in [0, n), and grades in
// [0, 1] that never increase. Seeded with the bodies of
// TestHostileSpanResponses, asked for 3 ranks of a universe of 100.
func FuzzEntriesResponse(f *testing.F) {
	for _, body := range []string{
		`{"objects":[1,2,3],"grades":[0.9,0.8]}`,
		`{"objects":[1],"grades":[0.9,0.8]}`,
		`{"objects":[1,2,3,4,5],"grades":[0.9,0.8,0.7,0.6,0.5]}`,
		`{"objects":[1,2],"grades":[1.5,0.8]}`,
		`{"objects":[1,2],"grades":[0.9,-0.1]}`,
		`{"objects":[1],"grades":[NaN]}`,
		`{"objects":[1],"grades":[1e999]}`,
		`{"objects":[1,2,3],"grades":[0.9,0.5,0.7]}`,
		`{"objects":[1,100],"grades":[0.9,0.8]}`,
		`{"objects":[-1],"grades":[0.9]}`,
		`{"objects":[],"grades":[]}`,
		`{"objects":[7,3,99],"grades":[1,0.5,0.5],"err":{"error":"x","transient":true}}`,
	} {
		f.Add([]byte(body), 3, 100)
	}
	f.Fuzz(func(t *testing.T, body []byte, max, n int) {
		var resp EntriesResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		span, err := resp.entries(max, n)
		if err != nil {
			return
		}
		if len(span) > max {
			t.Fatalf("accepted %d entries, %d asked for", len(span), max)
		}
		for i, e := range span {
			if e.Object < 0 || e.Object >= n {
				t.Fatalf("accepted object %d at position %d, universe of %d", e.Object, i, n)
			}
			if !(e.Grade >= 0 && e.Grade <= 1) {
				t.Fatalf("accepted grade %v at position %d", e.Grade, i)
			}
			if i > 0 && e.Grade > span[i-1].Grade {
				t.Fatalf("accepted grade %v at position %d after %v", e.Grade, i, span[i-1].Grade)
			}
		}
	})
}
