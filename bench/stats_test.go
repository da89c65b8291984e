package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	// p95 needs 200 samples to leave 10 beyond it.
	if got := samplesBeyond(200, 0.95); got != 10 {
		t.Errorf("samplesBeyond(200, .95) = %d, want 10", got)
	}
	if got := samplesBeyond(199, 0.95); got >= 10 {
		t.Errorf("samplesBeyond(199, .95) = %d, want < 10", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 2 || q3 != 4 {
		t.Errorf("quartiles(1..5) = %v, %v, want 2, 4", q1, q3)
	}
	q1, q3 = quartiles([]float64{9})
	if q1 != 9 || q3 != 9 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	in := []float64{5, 1, 4}
	median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 4 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The reported value is the median over rounds of each round's own
// percentile, not a percentile of the pooled samples: one slow round
// must not drag the figure.
func TestMedianOfRounds(t *testing.T) {
	ms := func(v float64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(v * 1e6)
		}
		return out
	}
	rounds := []roundStats{
		reduceRound(ms(1, 400), 2e9, 400, 0),
		reduceRound(ms(1.1, 400), 2e9, 400, 0),
		reduceRound(ms(9, 400), 2e9, 400, 0), // the noisy one
	}
	var p50, qps []float64
	for _, r := range rounds {
		p50, qps = append(p50, r.P50ms), append(qps, r.QPS)
	}
	s := summarize(p50)
	if s.Value != 1.1 || s.N != 3 {
		t.Errorf("median of round p50s = %+v, want 1.1 over 3", s)
	}
	if got := summarize(qps).Value; got != 200 {
		t.Errorf("median q/s = %v, want 200", got)
	}
	if math.Abs(s.Q1-1.05) > 1e-9 || math.Abs(s.Q3-5.05) > 1e-9 {
		t.Errorf("quartiles = %v, %v", s.Q1, s.Q3)
	}
}
