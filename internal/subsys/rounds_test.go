package subsys

import (
	"math"
	"testing"
)

// BenchmarkCountedSortedRounds is the sorted phase of A₀ on its own:
// round-robin Next over three bare 32 768-entry lists to Theorem 5.3's
// depth T = N^((m−1)/m)·k^(1/m) at k = 10, with the depth stated as A₀
// states it (Expect, T plus a quarter). Each op is one query's sorted rounds over fresh
// Counted lists drawn from and returned to the pools.
func BenchmarkCountedSortedRounds(b *testing.B) {
	const n, m, k = 32768, 3, 10
	srcs := make([]Source, m)
	for j := range srcs {
		srcs[j] = FromList(randomList(b, n, int64(j)))
	}
	depth := int(math.Ceil(math.Pow(n, (m-1.0)/m) * math.Pow(k, 1.0/m)))
	lists := make([]*Counted, m)
	cursors := make([]*Cursor, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, src := range srcs {
			lists[j] = Count(src)
			lists[j].Expect(depth + depth/4)
			cursors[j] = NewCursor(lists[j])
		}
		for range depth {
			for _, cu := range cursors {
				cu.Next()
			}
		}
		ReleaseAll(lists)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*depth), "ns/rank")
}
