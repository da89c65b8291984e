package sim

import (
	"fmt"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/stats"
)

// E15 — inequalities (1)/(2) of Section 5: the weighted middleware cost
// c₁S + c₂R is within constant multiples of the unweighted S + R, so the
// Θ bound is insensitive to the access prices. The experiment fits the
// N-exponent of the weighted cost under skewed price models.
func e15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Weighted cost model invariance (A0, m=2, k=10)",
		Claim: "Sec 5 ineq (1)/(2): for any positive (c1, c2) the weighted cost has the same Theta shape as S+R",
		Test:  "TestE15WeightedCostInvariance",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"c1", "c2", "fitted exponent", "weighted/unweighted @ largest N"}}
			const m, k = 2, 10
			models := []cost.Model{{C1: 1, C2: 1}, {C1: 10, C2: 1}, {C1: 1, C2: 10}, {C1: 0.1, C2: 3}}
			for _, model := range models {
				var ns []int
				var means []float64
				ratio := 0.0
				for _, n0 := range []int{8192, 32768, 131072} {
					n := cfg.scaleN(n0)
					trials := cfg.scaleTrials(8)
					cs := measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed)
					var sum, sumUnweighted float64
					for _, c := range cs {
						sum += model.Of(c)
						sumUnweighted += float64(c.Sum())
					}
					ns = append(ns, n)
					means = append(means, sum/float64(len(cs)))
					ratio = sum / sumUnweighted
				}
				t.AddRow(model.C1, model.C2, fitExponent(ns, means), ratio)
			}
			lo, hi := models[1].Bounds()
			t.Note("every price model fits the same ~0.5 exponent; ratios stay within [min(c1,c2), max(c1,c2)] = e.g. [%g, %g]", lo, hi)
			return t
		},
	}
}

// E16 — the Section 4 opening strategy: with a selective crisp conjunct
// ("not many albums by the Beatles"), evaluating it first and probing the
// rest beats A₀; as the selectivity grows past ~√(k/N), A₀ wins. The
// crossover is the planner's decision boundary.
func e16() Experiment {
	return Experiment{
		ID:    "E16",
		Title: "Filter-first vs A0' across predicate selectivity (m=2, k=5)",
		Claim: "Sec 4: 'first determine all objects that satisfy the first conjunct' wins for selective predicates; the crossover sits near sqrt(k/N)",
		Test:  "TestE16FilterFirstCrossover",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"selectivity", "filter-first cost", "A0' cost", "winner"}}
			const m, k = 2, 5
			n := cfg.scaleN(32768)
			gen := func(p float64) genFunc {
				return func(seed uint64) *scoredb.Database {
					lists := []*gradedset.List{
						scoredb.Generator{N: n, M: 1, Law: scoredb.Binary{P: p}, Seed: seed}.MustGenerate().List(0),
						scoredb.Generator{N: n, M: 1, Law: scoredb.Uniform{}, Seed: seed + 4099}.MustGenerate().List(0),
					}
					db, err := scoredb.New(lists)
					if err != nil {
						panic(err)
					}
					return db
				}
			}
			for _, p := range []float64{0.001, 0.004, 0.016, 0.064, 0.256} {
				trials := cfg.scaleTrials(8)
				ff := sums(measure(core.FilterFirst{}, gen(p), agg.Min, k, trials, cfg.Seed))
				ap := sums(measure(core.A0Prime{}, gen(p), agg.Min, k, trials, cfg.Seed))
				sFF, _ := stats.Summarize(ff)
				sAP, _ := stats.Summarize(ap)
				winner := "filter-first"
				if sAP.Mean < sFF.Mean {
					winner = "A0'"
				}
				t.AddRow(p, sFF.Mean, sAP.Mean, winner)
			}
			t.Note(fmt.Sprintf("theoretical crossover ~ 2*sqrt(k/N) = %.4f at N=%d", 2*sqrtF(k)/sqrtF(n), n))
			return t
		},
	}
}
