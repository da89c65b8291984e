package core

import (
	"slices"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/subsys"
)

// PlanShardsWeighted splits the dense universe {0,…,n−1} into p
// contiguous ranges that equalize predicted access work rather than
// object count. The work proxy for an id segment is the aggregate under
// t of the per-list mean grade masses over the segment (plus a small
// floor, so empty regions still cost their scan): on Fagin's skewed
// workloads a region whose grades are high in every list is exactly the
// region whose objects survive sorted rounds longest and draw the
// random-access completions, so mass under the query's own law is the
// cheapest honest predictor of where the accesses will land.
//
// The cuts are placed on the merged boundary grid of the sketches (the
// finest grid on which every sketch is piecewise-uniform, refined with
// an even grid so a single coarse bucket cannot force lumpy cuts),
// at the p-quantiles of cumulative predicted work, then clamped so
// every shard keeps at least one object. The second return value is the
// planned work per shard, in the proxy's (unitless) scale — the
// "planned" half of a ShardReport's planned-vs-actual comparison.
//
// Degenerate cases return subsys.PlanShards(n, p) byte for byte, with
// nil planned work: p ≤ 1, n ≤ p (nothing to balance), every sketch nil
// or over the wrong universe, or t not monotone (the proxy aggregates
// mean grades, which is only meaningful for the monotone laws the
// sharded merge supports anyway).
func PlanShardsWeighted(n, p int, sketches []*subsys.Sketch, t agg.Func) ([]subsys.ShardRange, []float64) {
	even := func() ([]subsys.ShardRange, []float64) {
		return subsys.PlanShards(n, p), nil
	}
	if p <= 1 || n <= p || t == nil || !t.Monotone() {
		return even()
	}
	usable := false
	for _, s := range sketches {
		if s != nil && s.N == n {
			usable = true
			break
		}
	}
	if !usable {
		return even()
	}

	// The evaluation grid: every sketch boundary, refined with an even
	// grid of ~4p points so work accumulates smoothly even where a
	// sketch is coarse.
	grid := subsys.MergedCuts(n, sketches)
	grid = refineGrid(grid, n, 4*p)

	// Per-segment work: aggregate of per-list mean grades over the
	// segment under t, plus a floor making work strictly positive — a
	// zero-mass tail still costs its sorted scan, and strictly
	// increasing cumulative work keeps the quantile cuts monotone.
	const workFloor = 1e-9

	// Every cut of a usable sketch is a grid point, so each segment lies
	// inside one bucket of that sketch: at[j] walks sketch j's buckets
	// alongside the segments, and the segment's mass is its share of
	// that bucket's (MassBetween's interpolation, without the scan over
	// every bucket per segment).
	buf := make([]float64, len(sketches))
	at := make([]int, len(sketches))
	segWork := make([]float64, len(grid)-1)
	var total float64
	for i := 0; i+1 < len(grid); i++ {
		lo, hi := grid[i], grid[i+1]
		w := float64(hi - lo)
		for j, s := range sketches {
			if s != nil && s.N == n && w > 0 {
				for s.Cuts[at[j]+1] <= lo {
					at[j]++
				}
				b := at[j]
				buf[j] = s.Mass[b] * w / float64(s.Cuts[b+1]-s.Cuts[b]) / w
			} else {
				// No sketch for this list: assume the indifferent mean.
				buf[j] = 0.5
			}
			if buf[j] < 0 {
				buf[j] = 0
			} else if buf[j] > 1 {
				buf[j] = 1
			}
		}
		segWork[i] = (t.Apply(buf) + workFloor) * w
		total += segWork[i]
	}

	// Cumulative work at each grid point: cum[j] is the predicted work of
	// the ids [0, grid[j]). Strictly increasing thanks to the floor.
	cum := make([]float64, len(grid))
	for i, w := range segWork {
		cum[i+1] = cum[i] + w
	}

	// Cut at the p-quantiles of cumulative work, interpolating inside
	// the segment each quantile lands in (work is uniform within a
	// segment). Clamps keep the plan valid: each cut strictly advances
	// (non-empty shards) and leaves room for the shards still owed.
	ranges := make([]subsys.ShardRange, p)
	planned := make([]float64, p)
	share := total / float64(p)
	prev := 0
	seg := 0
	for i := 0; i < p-1; i++ {
		target := share * float64(i+1)
		for seg+1 < len(segWork) && cum[seg+1] < target {
			seg++
		}
		lo, hi := grid[seg], grid[seg+1]
		frac := (target - cum[seg]) / segWork[seg]
		cut := lo + int(frac*float64(hi-lo))
		if min := prev + 1; cut < min {
			cut = min
		}
		if max := n - (p - 1 - i); cut > max {
			cut = max
		}
		ranges[i] = subsys.ShardRange{Lo: prev, Hi: cut}
		planned[i] = workBetween(grid, segWork, prev, cut)
		prev = cut
	}
	ranges[p-1] = subsys.ShardRange{Lo: prev, Hi: n}
	planned[p-1] = workBetween(grid, segWork, prev, n)
	return ranges, planned
}

// workBetween integrates the piecewise-uniform segment work over the id
// interval [lo, hi).
func workBetween(grid []int, segWork []float64, lo, hi int) float64 {
	var w float64
	for i := range segWork {
		slo, shi := grid[i], grid[i+1]
		if shi <= lo || slo >= hi {
			continue
		}
		olo, ohi := slo, shi
		if olo < lo {
			olo = lo
		}
		if ohi > hi {
			ohi = hi
		}
		if width := shi - slo; width > 0 {
			w += segWork[i] * float64(ohi-olo) / float64(width)
		}
	}
	return w
}

// refineGrid merges an even grid of `extra` points into the sorted cut
// grid (both spanning [0, n]), deduplicated and ascending.
func refineGrid(grid []int, n, extra int) []int {
	for i := 1; i < extra; i++ {
		if c := i * n / extra; c > 0 && c < n {
			grid = append(grid, c)
		}
	}
	slices.Sort(grid)
	return slices.Compact(grid)
}
