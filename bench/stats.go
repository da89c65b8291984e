package main

import (
	"math"
	"sort"

	"fuzzydb/internal/stats"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. Nearest rank returns a value that was measured, and
// its answer for p95 has exactly ⌊0.05·n⌋ samples beyond it, which is
// what the "≥10 samples beyond the percentile" rule counts.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median and quartiles use the repository's own interpolating quantile
// (internal/stats): defined for any n ≥ 1, and a round plan may have as
// few as one round.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func quartiles(xs []float64) (q1, q3 float64) {
	return stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75)
}

// summary is a metric reported as the median over rounds (or over
// repeated measurements) with its quartiles and sample count.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces per-round values to their median and quartiles.
func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// exact wraps a count-type metric measured once over a fixed sequence.
func exact(v float64) summary { return summary{Value: v, Q1: v, Q3: v, N: 1} }

// roundStats is what one timed round of one workload yields.
type roundStats struct {
	P50ms, P95ms float64
	QPS          float64
	Samples      int // query latency samples in the round
	Attempted    int // operations attempted (queries + writes)
	Failed       int // errors + sheds
}

// reduceRound turns one round's per-query latencies (ns) into its
// percentiles and throughput. wallNS is the round's wall time.
func reduceRound(latNS []int64, wallNS int64, attempted, failed int) roundStats {
	ms := make([]float64, len(latNS))
	for i, v := range latNS {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	rs := roundStats{Samples: len(ms), Attempted: attempted, Failed: failed}
	rs.P50ms = percentile(ms, 0.50)
	rs.P95ms = percentile(ms, 0.95)
	if wallNS > 0 {
		rs.QPS = float64(len(ms)) / (float64(wallNS) / 1e9)
	}
	return rs
}

// samplesBeyond reports how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}
