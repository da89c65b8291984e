package core

import (
	"context"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// sketchesFor builds m exact sketches over an n-object universe whose
// grades follow shape(i): the ground truth a weighted planner would see
// at load time.
func sketchesFor(t *testing.T, n, m int, shape func(i int) float64) []*subsys.Sketch {
	t.Helper()
	out := make([]*subsys.Sketch, m)
	for j := 0; j < m; j++ {
		entries := make([]gradedset.Entry, n)
		for i := 0; i < n; i++ {
			entries[i] = gradedset.Entry{Object: i, Grade: shape(i)}
		}
		l, err := gradedset.NewList(entries)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = subsys.SketchList(l)
	}
	return out
}

// hotPrefix concentrates grade mass in the first `hot` ids — the
// canonical skew the weighted planner exists for.
func hotPrefix(n, hot int) func(int) float64 {
	return func(i int) float64 {
		if i < hot {
			return 0.95 - 0.5*float64(i)/float64(hot)
		}
		return 0.01 * float64(n-i) / float64(n)
	}
}

// TestPlanShardsWeightedProperties pins the structural invariants of
// every weighted plan: exactly p contiguous ranges in ascending order
// covering {0,…,n−1} with no gap, overlap, or empty shard, and a
// planned-work vector of the same length whose entries are positive.
func TestPlanShardsWeightedProperties(t *testing.T) {
	shapes := map[string]func(int) float64{
		"hot-prefix": hotPrefix(4096, 256),
		"hot-suffix": func(i int) float64 { return float64(i) / 4096 },
		"flat":       func(int) float64 { return 0.5 },
		"zero":       func(int) float64 { return 0 },
	}
	for name, shape := range shapes {
		for _, n := range []int{8, 63, 500, 4096} {
			for _, p := range []int{2, 3, 4, 7} {
				if p >= n {
					continue
				}
				sketches := sketchesFor(t, n, 2, shape)
				ranges, planned := PlanShardsWeighted(n, p, sketches, agg.Min)
				if len(ranges) != p || len(planned) != p {
					t.Fatalf("%s n=%d p=%d: %d ranges, %d planned, want %d of each",
						name, n, p, len(ranges), len(planned), p)
				}
				prev := 0
				for s, r := range ranges {
					if r.Lo != prev {
						t.Errorf("%s n=%d p=%d: shard %d starts at %d, want %d (gap/overlap)",
							name, n, p, s, r.Lo, prev)
					}
					if r.Len() < 1 {
						t.Errorf("%s n=%d p=%d: shard %d is empty: %+v", name, n, p, s, r)
					}
					if planned[s] <= 0 {
						t.Errorf("%s n=%d p=%d: shard %d planned work %v, want > 0",
							name, n, p, s, planned[s])
					}
					prev = r.Hi
				}
				if prev != n {
					t.Errorf("%s n=%d p=%d: plan ends at %d, want %d", name, n, p, prev, n)
				}
			}
		}
	}
}

// TestPlanShardsWeightedDegenerate: every degenerate input — p ≤ 1, a
// universe no bigger than p, no sketches, all-nil sketches, sketches
// over the wrong universe, a nil aggregation law — must return the even
// split byte for byte, with nil planned work. Weighted planning must
// never change behavior unless it has real information to act on.
func TestPlanShardsWeightedDegenerate(t *testing.T) {
	good := sketchesFor(t, 100, 2, hotPrefix(100, 10))
	wrong := sketchesFor(t, 64, 2, hotPrefix(64, 8))
	cases := []struct {
		name     string
		n, p     int
		sketches []*subsys.Sketch
		f        agg.Func
	}{
		{"p=1", 100, 1, good, agg.Min},
		{"p=0", 100, 0, good, agg.Min},
		{"n<=p", 4, 4, sketchesFor(t, 4, 2, hotPrefix(4, 1)), agg.Min},
		{"no-sketches", 100, 4, nil, agg.Min},
		{"all-nil", 100, 4, []*subsys.Sketch{nil, nil}, agg.Min},
		{"wrong-universe", 100, 4, wrong, agg.Min},
		{"nil-agg", 100, 4, good, nil},
	}
	for _, tc := range cases {
		ranges, planned := PlanShardsWeighted(tc.n, tc.p, tc.sketches, tc.f)
		even := subsys.PlanShards(tc.n, tc.p)
		if planned != nil {
			t.Errorf("%s: planned work %v, want nil on the degenerate path", tc.name, planned)
		}
		if len(ranges) != len(even) {
			t.Fatalf("%s: %d ranges, even split has %d", tc.name, len(ranges), len(even))
		}
		for s := range even {
			if ranges[s] != even[s] {
				t.Errorf("%s: shard %d = %+v, even split %+v", tc.name, s, ranges[s], even[s])
			}
		}
	}
}

// TestPlanShardsWeightedBalancesSkew is the planner's reason to exist:
// with grade mass concentrated in a hot prefix, the weighted cuts must
// give the hot region strictly narrower shards than the even split
// would — the hot shard carries more predicted work per object, so it
// gets fewer objects.
func TestPlanShardsWeightedBalancesSkew(t *testing.T) {
	const n, p, hot = 4096, 4, 512
	sketches := sketchesFor(t, n, 2, hotPrefix(n, hot))
	ranges, planned := PlanShardsWeighted(n, p, sketches, agg.Min)
	evenWidth := n / p
	if w := ranges[0].Len(); w >= evenWidth {
		t.Errorf("hot shard width %d not below even width %d: %+v", w, evenWidth, ranges)
	}
	// The planned work must be near-balanced: no shard more than twice
	// the smallest (the quantile cuts only miss by integer rounding on
	// the grid).
	lo, hi := planned[0], planned[0]
	for _, w := range planned[1:] {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if hi > 2*lo {
		t.Errorf("planned work imbalance %v..%v exceeds 2x: %v (ranges %+v)", lo, hi, planned, ranges)
	}
}

// TestPlanShardsWeightedEndToEnd runs the full sharded evaluation under
// the weighted plan on skewed data and pins the contract: answers
// satisfy shard equivalence against the unsharded reference, the report
// carries len(plan) details whose ranges reproduce the plan, and actual
// cost lands where planned cost predicts (the hot shard pays the most).
func TestPlanShardsWeightedEndToEnd(t *testing.T) {
	const n, k, shards = 4096, 10, 4
	db := skewedDB(t, n, n/shards)
	sketches := []*subsys.Sketch{subsys.SketchList(db.List(0)), subsys.SketchList(db.List(1))}
	want, _, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, k)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := EvaluateSharded(context.Background(), A0{}, sourcesOf(db), agg.Min, k,
		ShardConfig{Shards: shards, Parallel: 1, Sketches: sketches})
	if err != nil {
		t.Fatal(err)
	}
	truth := trueScorer(db, agg.Min)
	requireShardEquiv(t, "weighted", want, sr.Results, truth)
	if len(sr.Details) != shards {
		t.Fatalf("%d shard details, want %d", len(sr.Details), shards)
	}
	prev := 0
	for s, d := range sr.Details {
		if d.Range.Lo != prev {
			t.Errorf("detail %d range %+v does not continue from %d", s, d.Range, prev)
		}
		prev = d.Range.Hi
		if d.Planned <= 0 {
			t.Errorf("detail %d planned %v, want > 0", s, d.Planned)
		}
	}
	if prev != n {
		t.Errorf("details end at %d, want %d", prev, n)
	}
}
