package middleware

import (
	"context"
	"testing"
)

// TestQueryAllocationBudget gates the in-process hot path: one uncached
// Engine.Query of a three-list min-conjunction over N = 32768 (the shape
// of the request-path benchmark's embed_conj workload) allocates 76
// objects, ≈25 kB. The sorted prefix and the random-access staging are
// pooled, and a flat conjunction's Apply allocates nothing; growing
// either per query again costs thousands of objects and most of a
// megabyte. The bound is the count itself, so the request path cannot
// get heavier by a handful either: the options are applied to one
// Request that is then passed by value, and must not make it escape a
// second time.
//
// The WithPrefetch(0) row is the same query through the pipelined
// executor (≈230 objects: prefetchers, their buffers and goroutines,
// some of it timing-dependent, hence the slack). Its option stores the
// address of a cap it allocated once, when it was built; the row is
// what fails if applying it starts to allocate per query.
func TestQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	mw := genStore(t, 32768, 3, 14)
	q := genConj(3)
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		opts      []QueryOption
		maxAllocs int64
		maxBytes  int64
	}{
		{"TopN(10)", []QueryOption{TopN(10)}, 76, 64 << 10},
		{"TopN(10), WithPrefetch(0)", []QueryOption{TopN(10), WithPrefetch(0)}, 240, 2 << 20},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mw.Query(ctx, q, tc.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
		if allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp(); allocs > tc.maxAllocs || bytes >= tc.maxBytes {
			t.Errorf("Query(%s) allocates %d objects, %d bytes per call; want at most %d objects and under %d bytes",
				tc.name, allocs, bytes, tc.maxAllocs, tc.maxBytes)
		}
	}
}
