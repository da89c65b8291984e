package sim

import (
	"math"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/stats"
)

// E7 — Remark 6.1: B₀ answers the standard fuzzy disjunction with
// middleware cost exactly mk, independent of N. Max is monotone but not
// strict, so the strict lower bound does not apply — and indeed fails.
func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "B0 disjunction cost vs N (m=3, k=10)",
		Claim: "Rem 6.1/Thm 4.5: max is not strict; B0 costs exactly mk regardless of N",
		Test:  "TestE7B0Flat",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"N", "mean cost", "max cost", "mk", "strict-bound cost would be"}}
			const m, k = 3, 10
			for _, n0 := range []int{4096, 32768, 262144} {
				n := cfg.scaleN(n0)
				trials := cfg.scaleTrials(6)
				cs := sums(measure(core.B0{}, independent(n, m, scoredb.Uniform{}), agg.Max, k, trials, cfg.Seed))
				s, _ := stats.Summarize(cs)
				t.AddRow(n, s.Mean, s.Max, m*k, theoryCost(n, m, k))
			}
			t.Note("flat at mk=%d while the strict-query bound grows as N^(2/3)", 3*10)
			return t
		},
	}
}

// E8 — Remark 6.1: the median (m = 3) is monotone but not strict, and the
// subset-decomposition algorithm evaluates it in O(√(Nk)) — beating the
// Θ(N^(2/3)k^(1/3)) cost that strict queries require. Generic A₀ is also
// correct for the median but pays its usual N^(2/3) cost: the gap is the
// point. The "planned from the query string" column is the median spelled
// as a query, (A1 AND A2) OR (A1 AND A3) OR (A2 AND A3), through an
// engine whose planner must pick the subset decomposition on its own.
func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Median via subset decomposition vs generic A0 (m=3, k=5)",
		Claim: "Rem 6.1: median evaluable in O(sqrt(Nk)); the strict bound N^(2/3) does not apply",
		Test:  "TestE8MedianBeatsA0",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"N", "median-alg mean cost", "planned from the query string", "A0 mean cost", "sqrt(Nk)", "N^(2/3)k^(1/3)"}}
			const m, k = 3, 5
			var ns []int
			var medMeans, a0Means []float64
			for _, n0 := range []int{4096, 16384, 65536, 262144} {
				n := cfg.scaleN(n0)
				trials := cfg.scaleTrials(8)
				med := sums(measure(core.OrderStat{}, independent(n, m, scoredb.Uniform{}), agg.Median, k, trials, cfg.Seed))
				planned := sums(measureQuery(medianQuery, independent(n, m, scoredb.Uniform{}), k, trials, cfg.Seed))
				a0 := sums(measure(core.A0{}, independent(n, m, scoredb.Uniform{}), agg.Median, k, trials, cfg.Seed))
				sMed, _ := stats.Summarize(med)
				sPlanned, _ := stats.Summarize(planned)
				sA0, _ := stats.Summarize(a0)
				ns = append(ns, n)
				medMeans = append(medMeans, sMed.Mean)
				a0Means = append(a0Means, sA0.Mean)
				t.AddRow(n, sMed.Mean, sPlanned.Mean, sA0.Mean, theoryCost(n, 2, k), theoryCost(n, 3, k))
			}
			t.Note("fitted exponents: median-alg %.3f, A0 %.3f (theory: 0.5 vs 0.667)",
				fitExponent(ns, medMeans), fitExponent(ns, a0Means))
			return t
		},
	}
}

// medianQuery is the median of three lists as the engine's query syntax
// spells it (see measureQuery for the attribute names).
const medianQuery = `(A1 = "*" AND A2 = "*") OR (A1 = "*" AND A3 = "*") OR (A2 = "*" AND A3 = "*")`

// E10 — Section 9, Ullman's algorithm: with the probed list's grades
// bounded above by 0.9 and the other uniform, the expected cost is
// constant in N (about 10 iterations); with both uniform it is Θ(√N)
// (Landau), no better than A₀.
func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Ullman's algorithm: bounded-above vs uniform grades (m=2, k=1)",
		Claim: "Sec 9: expected constant cost when one list's grades are <= 0.9; Theta(sqrt(N)) when both uniform",
		Test:  "TestE10UllmanRegimes",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"N", "bounded: mean cost", "uniform: mean cost", "uniform/sqrt(N)", "A0 mean cost"}}
			const k = 1
			bounded := func(n int) genFunc {
				return func(seed uint64) *scoredb.Database {
					l1 := scoredb.Generator{N: n, M: 1, Law: scoredb.BoundedAbove{Max: 0.9}, Seed: seed}.MustGenerate().List(0)
					l2 := scoredb.Generator{N: n, M: 1, Law: scoredb.Uniform{}, Seed: seed + 99991}.MustGenerate().List(0)
					db, err := scoredb.New([]*gradedset.List{l1, l2})
					if err != nil {
						panic(err)
					}
					return db
				}
			}
			var ns []int
			var uniMeans []float64
			for _, n0 := range []int{4096, 16384, 65536, 262144} {
				n := cfg.scaleN(n0)
				trials := cfg.scaleTrials(12)
				b := sums(measure(core.Ullman{}, bounded(n), agg.Min, k, trials, cfg.Seed))
				u := sums(measure(core.Ullman{}, independent(n, 2, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed))
				a := sums(measure(core.A0{}, independent(n, 2, scoredb.Uniform{}), agg.Min, k, trials, cfg.Seed))
				sb, _ := stats.Summarize(b)
				su, _ := stats.Summarize(u)
				sa, _ := stats.Summarize(a)
				ns = append(ns, n)
				uniMeans = append(uniMeans, su.Mean)
				t.AddRow(n, sb.Mean, su.Mean, su.Mean/sqrtF(n), sa.Mean)
			}
			t.Note("uniform-case fitted exponent %.3f (Landau: 0.5); bounded case flat in N", fitExponent(ns, uniMeans))
			return t
		},
	}
}

// sqrtF is √n for integer n.
func sqrtF(n int) float64 { return math.Sqrt(float64(n)) }
