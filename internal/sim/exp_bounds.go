package sim

import (
	"math"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/stats"
)

// E4 — Wimmers' refined tail bound [Wi98b]: for m = 2 the probability
// that more than c·√(Nk) objects are accessed by sorted access in each
// list is below 2·10⁻⁸ for c = 2 and below 4·10⁻²⁷ for c = 3. At any
// feasible trial count the expected number of exceedances is therefore
// zero; the experiment measures the empirical tail at several c.
func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Tail of the per-list sorted depth vs c*sqrt(Nk) (m=2)",
		Claim: "[Wi98b]: Pr[depth > c sqrt(Nk)] < 2e-8 (c=2), < 4e-27 (c=3); empirically zero exceedances",
		Test:  "TestE4NoExceedancesAtC3",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"c", "trials", "exceedances", "empirical Pr", "paper bound"}}
			const m, k = 2, 10
			n := cfg.scaleN(4096)
			trials := cfg.scaleTrials(600)
			// Depth per list = sorted cost / m for the uniform-depth A0.
			cs := measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed)
			depths := make([]float64, len(cs))
			for i, c := range cs {
				depths[i] = float64(c.Sorted) / m
			}
			bounds := map[float64]string{1.5: "(not stated)", 2: "2e-8", 3: "4e-27"}
			for _, c := range []float64{1.5, 2, 3} {
				thresh := c * math.Sqrt(float64(n*k))
				exceed := 0
				for _, d := range depths {
					if d > thresh {
						exceed++
					}
				}
				t.AddRow(c, trials, exceed, float64(exceed)/float64(trials), bounds[c])
			}
			s, _ := stats.Summarize(depths)
			t.Note("depth summary at N=%d: mean %.0f, p99 %.0f, max %.0f; sqrt(Nk) = %.0f",
				n, s.Mean, s.P99, s.Max, math.Sqrt(float64(n*k)))
			return t
		},
	}
}

// E5 — Theorem 6.4 lower bound: for strict t,
// Pr[sumcost ≤ θ·N^((m−1)/m)k^(1/m)] ≤ θ^m. The empirical CDF of the
// normalized cost must stay below the θ^m envelope.
func e5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Lower-bound envelope: empirical CDF vs theta^m",
		Claim: "Thm 6.4: Pr[cost <= theta * N^((m-1)/m) k^(1/m)] <= theta^m for every correct algorithm",
		Test:  "TestE5EnvelopeHolds",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"m", "theta", "empirical CDF (A0)", "empirical CDF (TA)", "envelope theta^m"}}
			const k = 5
			violations := 0
			for _, m := range []int{2, 3} {
				n := cfg.scaleN(4096)
				trials := cfg.scaleTrials(300)
				norm := theoryCost(n, m, k)
				a0 := sums(measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed+uint64(m)))
				ta := sums(measure(core.TA{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed+uint64(m)))
				for _, theta := range []float64{0.25, 0.5, 0.75, 1.0} {
					cdfA0 := stats.ECDF(a0, theta*norm)
					cdfTA := stats.ECDF(ta, theta*norm)
					env := math.Pow(theta, float64(m))
					if cdfA0 > env || cdfTA > env {
						violations++
					}
					t.AddRow(m, theta, cdfA0, cdfTA, env)
				}
			}
			t.Note("envelope violations: %d (sampling noise aside, expected 0)", violations)
			return t
		},
	}
}
