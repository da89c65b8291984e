package subsys

import (
	"math/rand"
	"testing"

	"fuzzydb/internal/gradedset"
)

func TestPlanShards(t *testing.T) {
	cases := []struct {
		n, p    int
		wantLen []int
	}{
		{10, 3, []int{4, 3, 3}},
		{9, 3, []int{3, 3, 3}},
		{7, 1, []int{7}},
		{5, 0, []int{5}},       // p < 1 behaves as 1
		{5, -2, []int{5}},      // ditto
		{3, 5, []int{1, 1, 1}}, // p > n: clamped, no zero-width trailing shards
		{1, 8, []int{1}},       // ditto, extreme
		{0, 2, []int{0}},       // empty universe: one empty range, not p of them
		{0, 0, []int{0}},
	}
	for _, tc := range cases {
		plan := PlanShards(tc.n, tc.p)
		if len(plan) != len(tc.wantLen) {
			t.Fatalf("PlanShards(%d,%d) = %d shards, want %d", tc.n, tc.p, len(plan), len(tc.wantLen))
		}
		lo := 0
		for i, r := range plan {
			if r.Lo != lo {
				t.Errorf("PlanShards(%d,%d)[%d].Lo = %d, want %d (contiguous cover)", tc.n, tc.p, i, r.Lo, lo)
			}
			if r.Len() != tc.wantLen[i] {
				t.Errorf("PlanShards(%d,%d)[%d].Len = %d, want %d", tc.n, tc.p, i, r.Len(), tc.wantLen[i])
			}
			lo = r.Hi
		}
		if lo != tc.n {
			t.Errorf("PlanShards(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.p, lo, tc.n)
		}
	}
}

// randomList builds a dense graded list with deterministic pseudo-random
// distinct grades.
func randomList(t testing.TB, n int, seed int64) *gradedset.List {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]gradedset.Entry, n)
	for i := range entries {
		entries[i] = gradedset.Entry{Object: i, Grade: rng.Float64()}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestShardViewMatchesFilteredReference: a shard view's sorted order,
// grades, and random access must match the brute-force re-ranked
// restriction of the parent, under both rank-at-a-time and batched
// access, for every shard of several partitions.
func TestShardViewMatchesFilteredReference(t *testing.T) {
	const n = 211
	parent := FromList(randomList(t, n, 7))
	for _, p := range []int{1, 2, 3, 7, 50} {
		for _, r := range PlanShards(n, p) {
			// Brute-force reference: parent entries filtered to the range,
			// renumbered.
			var want []gradedset.Entry
			for _, e := range parent.Entries(0, n) {
				if e.Object >= r.Lo && e.Object < r.Hi {
					want = append(want, gradedset.Entry{Object: e.Object - r.Lo, Grade: e.Grade})
				}
			}
			v := NewShardView(parent, r)
			if v.Len() != len(want) {
				t.Fatalf("shard %v: Len = %d, want %d", r, v.Len(), len(want))
			}
			for rank, w := range want {
				if got := v.Entry(rank); got != w {
					t.Errorf("shard %v: Entry(%d) = %v, want %v", r, rank, got, w)
				}
			}
			// Batched access on a fresh view (exercises fill from scratch).
			v2 := NewShardView(parent, r)
			for lo := 0; lo < len(want); lo += 5 {
				hi := lo + 5
				if hi > len(want) {
					hi = len(want)
				}
				span := v2.Entries(lo, hi)
				for i, e := range span {
					if e != want[lo+i] {
						t.Errorf("shard %v: Entries(%d,%d)[%d] = %v, want %v", r, lo, hi, i, e, want[lo+i])
					}
				}
			}
			// Random access translates local ids to the parent's.
			for local := 0; local < r.Len(); local++ {
				if got, want := v.Grade(local), parent.Grade(local+r.Lo); got != want {
					t.Errorf("shard %v: Grade(%d) = %v, want %v", r, local, got, want)
				}
			}
		}
	}
}

// TestShardViewEmptyRange: a view over an empty slice is a valid
// zero-length source.
func TestShardViewEmptyRange(t *testing.T) {
	parent := FromList(randomList(t, 20, 9))
	v := NewShardView(parent, ShardRange{Lo: 8, Hi: 8})
	if v.Len() != 0 {
		t.Fatalf("Len = %d, want 0", v.Len())
	}
	if got := v.Entries(0, 0); len(got) != 0 {
		t.Errorf("Entries(0,0) = %v, want empty", got)
	}
}

// TestShardViewLazyScan: the re-ranking must not eagerly scan the whole
// parent — shallow ranks examine only a proportional prefix.
func TestShardViewLazyScan(t *testing.T) {
	const n = 10000
	parent := FromList(randomList(t, n, 11))
	v := NewShardView(parent, ShardRange{Lo: 0, Hi: n / 10})
	v.Entry(0)
	if v.Scanned() == 0 || v.Scanned() == n {
		t.Errorf("Scanned = %d after one rank; want a partial prefix scan", v.Scanned())
	}
	scanned := v.Scanned()
	v.Entry(0) // re-reading costs no further scanning
	if v.Scanned() != scanned {
		t.Errorf("Scanned grew to %d on a re-read", v.Scanned())
	}
}

// TestFenceClosesSortedStream: fencing a counted list makes every cursor
// report exhaustion and deliver nothing, without disturbing what was
// already delivered, the tallies, or random access.
func TestFenceClosesSortedStream(t *testing.T) {
	l := Count(FromList(randomList(t, 30, 13)))
	cu := NewCursor(l)
	for i := 0; i < 5; i++ {
		if _, ok := cu.Next(); !ok {
			t.Fatal("list ran out early")
		}
	}
	last := cu.LastGrade()
	l.Fence()
	if !l.Fenced() {
		t.Error("Fenced() = false after Fence")
	}
	if !cu.Exhausted() {
		t.Error("cursor not exhausted after fence")
	}
	if _, ok := cu.Next(); ok {
		t.Error("Next delivered past a fence")
	}
	if got := cu.NextBatch(10); got != nil {
		t.Errorf("NextBatch delivered %d entries past a fence", len(got))
	}
	if cu.LastGrade() != last {
		t.Errorf("LastGrade changed across fence: %v != %v", cu.LastGrade(), last)
	}
	if got := l.Cost(); got.Sorted != 5 {
		t.Errorf("sorted tally %d after fence, want 5", got.Sorted)
	}
	// Random access still works and still memoizes.
	g := l.Grade(29)
	if got := l.Cost(); got.Random != 1 {
		t.Errorf("random tally %d, want 1", got.Random)
	}
	if g2 := l.Grade(29); g2 != g || l.Cost().Random != 1 {
		t.Error("memo broken after fence")
	}
}
