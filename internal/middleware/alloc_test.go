package middleware

import (
	"context"
	"math/rand"
	"testing"

	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
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
//
// The overlay row is the first query over Mutable subsystems after 60
// grade writes, so every list is a shared flat base plus moved entries
// and the sorted phase reads spans that cross overlay boundaries. Those
// spans must be filled straight into the pooled prefix: a copy per
// crossing span costs ≈120 kB per query.
func TestQueryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	mw := genStore(t, 32768, 3, 14)
	overlaid := genOverlaidStore(t, 32768, 3, 14, 60)
	q := genConj(3)
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		mw        *Middleware
		opts      []QueryOption
		maxAllocs int64
		maxBytes  int64
	}{
		{"TopN(10)", mw, []QueryOption{TopN(10)}, 76, 64 << 10},
		{"TopN(10), WithPrefetch(0)", mw, []QueryOption{TopN(10), WithPrefetch(0)}, 240, 2 << 20},
		{"TopN(10) over overlaid lists", overlaid, []QueryOption{TopN(10)}, 76, 64 << 10},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.mw.Query(ctx, q, tc.opts...); err != nil {
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

// genOverlaidStore is genStore over Mutable subsystems, each list then
// given writes grade updates at random objects: fewer than the ⌈√N⌉
// that fold an overlay, so every list reads through one.
func genOverlaidStore(t *testing.T, n, m int, seed uint64, writes int) *Middleware {
	t.Helper()
	db := scoredb.Generator{N: n, M: m, Seed: seed}.MustGenerate()
	rng := rand.New(rand.NewSource(int64(seed)))
	subsystems := make([]subsys.Subsystem, m)
	for i := 0; i < m; i++ {
		mu := subsys.NewMutable(attrName(i), n, 0)
		mu.Set("*", db.List(i))
		for range writes {
			if err := mu.UpdateGrade("*", rng.Intn(n), rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		subsystems[i] = mu
	}
	mw, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	return mw
}
