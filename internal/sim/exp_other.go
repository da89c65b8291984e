package sim

import (
	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/stats"
)

// E9 — Theorem 7.1: the query Q ∧ ¬Q over a fully fuzzy Q is provably
// hard: every correct algorithm has middleware cost Θ(N). The workload is
// the reversed-permutation pair of Section 7.
func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Hard query Q AND NOT Q: cost vs N (k=1)",
		Claim: "Thm 7.1: middleware cost is Theta(N); sublinearity is impossible, the naive algorithm is essentially optimal",
		Test:  "TestE9HardQueryLinear",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"N", "A0 cost", "TA cost", "naive cost", "A0 cost / N"}}
			hard := func(n int) genFunc {
				return func(seed uint64) *scoredb.Database {
					db, err := scoredb.HardQueryPair(n, seed)
					if err != nil {
						panic(err)
					}
					return db
				}
			}
			var ns []int
			var a0Means []float64
			for _, n0 := range []int{2048, 8192, 32768, 131072} {
				n := cfg.scaleN(n0)
				trials := cfg.scaleTrials(5)
				a0 := sums(measure(core.A0{}, hard(n), agg.Min, 1, trials, cfg.Seed))
				ta := sums(measure(core.TA{}, hard(n), agg.Min, 1, trials, cfg.Seed))
				nv := sums(measure(core.NaiveSorted{}, hard(n), agg.Min, 1, trials, cfg.Seed))
				sa, _ := stats.Summarize(a0)
				st, _ := stats.Summarize(ta)
				sn, _ := stats.Summarize(nv)
				ns = append(ns, n)
				a0Means = append(a0Means, sa.Mean)
				t.AddRow(n, sa.Mean, st.Mean, sn.Mean, sa.Mean/float64(n))
			}
			t.Note("fitted exponent %.3f (theory: 1.0 — linear, unlike the sqrt(N) of independent lists)", fitExponent(ns, a0Means))
			return t
		},
	}
}

// E11 — Section 4: A₀′ probes only the candidates, saving a constant
// factor of random accesses over A₀ at identical sorted cost.
func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "A0' candidate pruning vs A0 (min conjunction, k=10)",
		Claim: "Sec 4 (Thm 4.4): A0' does the same sorted work but fewer random accesses, a constant-factor saving",
		Test:  "TestE11A0PrimeSavings",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"m", "N", "A0 S", "A0 R", "A0' S", "A0' R", "R saving"}}
			const k = 10
			for _, m := range []int{2, 3} {
				for _, n0 := range []int{16384, 131072} {
					n := cfg.scaleN(n0)
					trials := cfg.scaleTrials(8)
					gen := independent(n, m, scoredb.Uniform{})
					a0 := measure(core.A0{}, gen, agg.Min, k, trials, cfg.Seed)
					ap := measure(core.A0Prime{}, gen, agg.Min, k, trials, cfg.Seed)
					sS, _ := stats.Summarize(sorteds(a0))
					sR, _ := stats.Summarize(randoms(a0))
					pS, _ := stats.Summarize(sorteds(ap))
					pR, _ := stats.Summarize(randoms(ap))
					saving := 0.0
					if sR.Mean > 0 {
						saving = 1 - pR.Mean/sR.Mean
					}
					t.AddRow(m, n, sS.Mean, sR.Mean, pS.Mean, pR.Mean, saving)
				}
			}
			t.Note("sorted costs identical by construction; the saving column is the pruned fraction of random accesses")
			return t
		},
	}
}

// E12 — Sections 3 and 5: the bounds are robust across aggregation
// functions. A₀'s cost is t-independent by design (its stopping rule
// never looks at t); TA's cost does depend on t, and stays sublinear with
// the same √N shape for every monotone strict choice, while collapsing to
// O(k) for the non-strict max.
func e12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Robustness across aggregation functions (m=2, k=10, TA)",
		Claim: "Secs 3/5/6: upper and lower bounds hold for every monotone strict t (t-norms and means alike); strictness is what matters",
		Test:  "TestE12StrictnessDichotomy",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"aggregation", "strict", "fitted exponent", "mean cost @ largest N"}}
			const m, k = 2, 10
			funcs := []agg.Func{
				agg.Min, agg.AlgebraicProduct, agg.EinsteinProduct,
				agg.HamacherProduct, agg.BoundedDifference,
				agg.ArithmeticMean, agg.GeometricMean,
				agg.Max, // non-strict contrast
			}
			for _, f := range funcs {
				var ns []int
				var means []float64
				for _, n0 := range []int{8192, 32768, 131072} {
					n := cfg.scaleN(n0)
					trials := cfg.scaleTrials(6)
					cs := sums(measure(core.TA{}, independent(n, m, scoredb.Uniform{}), f, k, trials, cfg.Seed))
					s, _ := stats.Summarize(cs)
					ns = append(ns, n)
					means = append(means, s.Mean)
				}
				t.AddRow(f.Name(), f.Strict(), fitExponent(ns, means), means[len(means)-1])
			}
			t.Note("strict functions share the ~0.5 exponent; max (non-strict) is flat — exactly the strictness dichotomy of Thm 6.4/Rem 6.1")
			return t
		},
	}
}

// E13 — Section 7's motivation: correlation between the atomic queries
// moves the cost between the extremes. Positive correlation helps (the
// same objects lead every list); negative correlation hurts, degenerating
// to the linear hard-query regime at ρ = −1.
func e13() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "A0 cost vs rank correlation of the two lists (m=2, k=10)",
		Claim: "Sec 7: positive correlation can only help; the extreme negative case forces linear cost",
		Test:  "TestE13CorrelationMonotone",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"correlation", "mean cost", "cost / sqrt(Nk)", "cost / N"}}
			const m, k = 2, 10
			n := cfg.scaleN(16384)
			for _, rho := range []float64{-1, -0.5, 0, 0.5, 1} {
				trials := cfg.scaleTrials(8)
				gen := func(seed uint64) *scoredb.Database {
					return scoredb.Generator{N: n, M: m, Law: scoredb.Uniform{}, Seed: seed, Correlation: rho}.MustGenerate()
				}
				cs := sums(measure(core.A0{}, gen, agg.Min, k, trials, cfg.Seed))
				s, _ := stats.Summarize(cs)
				t.AddRow(rho, s.Mean, s.Mean/theoryCost(n, m, k), s.Mean/float64(n))
			}
			t.Note("cost decreases monotonically in correlation at N=%d", n)
			return t
		},
	}
}

// E14 — the legacy ablation: FA (A₀) against its successors TA and NRA,
// and against Ullman's sequential probing, on the independent workload.
func e14() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Algorithm family ablation (min conjunction, k=10)",
		Claim: "Extension: TA never scans deeper than A0; NRA trades random accesses for deeper sorted scans; Ullman is competitive at m=2",
		Test:  "TestE14TABeatsOrMatchesA0",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"m", "N", "A0", "A0'", "TA", "NRA", "Ullman"}}
			const k = 10
			for _, m := range []int{2, 3} {
				for _, n0 := range []int{8192, 65536} {
					n := cfg.scaleN(n0)
					trials := cfg.scaleTrials(6)
					gen := independent(n, m, scoredb.Uniform{})
					row := []interface{}{m, n}
					algs := []core.Algorithm{core.A0{}, core.A0Prime{}, core.TA{}, nra{}}
					for _, alg := range algs {
						s, _ := stats.Summarize(sums(measure(alg, gen, agg.Min, k, trials, cfg.Seed)))
						row = append(row, s.Mean)
					}
					if m == 2 {
						s, _ := stats.Summarize(sums(measure(core.Ullman{}, gen, agg.Min, k, trials, cfg.Seed)))
						row = append(row, s.Mean)
					} else {
						row = append(row, "n/a")
					}
					t.AddRow(row...)
				}
			}
			t.Note("all costs are unweighted middleware costs S+R, averaged over trials")
			return t
		},
	}
}

// E18 — E14's comparison off min. The planner's default branch runs A₀
// for every monotone law that is neither min (A₀′) nor max (B₀); under
// the two laws of that branch that differ in access pattern, product and
// mean, TA's threshold stop reads less than A₀'s k-matches rule.
// (Geometric mean orders objects as product does, so it would repeat
// product's row.)
func e18() Experiment {
	return Experiment{
		ID:    "E18",
		Title: "A0 vs TA under the default branch's laws (k=10)",
		Claim: "Extension: off min, where A0' does not apply, TA reads less than A0 on independent lists",
		Test:  "TestE18TABeatsA0OffMin",
		Run: func(cfg Config) *Table {
			t := &Table{Header: []string{"aggregation", "m", "N", "A0", "TA", "TA saving"}}
			const k = 10
			for _, f := range []agg.Func{agg.AlgebraicProduct, agg.ArithmeticMean} {
				for _, m := range []int{2, 3} {
					for _, n0 := range []int{8192, 65536} {
						n := cfg.scaleN(n0)
						trials := cfg.scaleTrials(6)
						gen := independent(n, m, scoredb.Uniform{})
						a0, _ := stats.Summarize(sums(measure(core.A0{}, gen, f, k, trials, cfg.Seed)))
						ta, _ := stats.Summarize(sums(measure(core.TA{}, gen, f, k, trials, cfg.Seed)))
						t.AddRow(f.Name(), m, n, a0.Mean, ta.Mean, 1-ta.Mean/a0.Mean)
					}
				}
			}
			t.Note("all costs are unweighted middleware costs S+R, averaged over trials; A0's equal E14's, its stop being t-independent")
			return t
		},
	}
}
