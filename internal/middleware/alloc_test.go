package middleware

import (
	"context"
	"testing"
)

// TestQueryAllocationBudget gates the in-process hot path: one uncached
// Engine.Query of a three-list min-conjunction over N = 32768 (the shape
// of the request-path benchmark's embed_conj workload) must stay under
// 128 allocations and 64 kB. The sorted prefix and the random-access
// staging are pooled, and a flat conjunction's Apply allocates nothing,
// so a query allocates a few dozen small objects (≈70, ≈25 kB); growing
// either per query again costs thousands of objects and most of a
// megabyte, far outside the bound.
func TestQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	mw := genStore(t, 32768, 3, 14)
	q := genConj(3)
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mw.Query(ctx, q, TopN(10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp(); allocs >= 128 || bytes >= 64<<10 {
		t.Errorf("Query allocates %d objects, %d bytes per call; want under 128 objects and %d bytes", allocs, bytes, 64<<10)
	}
}
