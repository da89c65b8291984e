package sim

import (
	"context"
	"fmt"
	"math"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/middleware"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/stats"
	"fuzzydb/internal/subsys"
)

// Config scales the experiments: QuickConfig is what the test suite and
// testdata/quick.golden run, DefaultConfig what EXPERIMENTS.md holds.
type Config struct {
	// SizeFactor scales every N used by the experiments (1 = full size).
	SizeFactor float64
	// TrialFactor scales every trial count (1 = full count).
	TrialFactor float64
	// Seed derives all per-trial seeds.
	Seed uint64
}

// DefaultConfig is the full-size configuration.
func DefaultConfig() Config { return Config{SizeFactor: 1, TrialFactor: 1, Seed: 1} }

// QuickConfig shrinks sizes and trials for fast test runs while keeping
// every qualitative shape measurable.
func QuickConfig() Config { return Config{SizeFactor: 0.125, TrialFactor: 0.25, Seed: 1} }

// scaleN scales a nominal database size, keeping at least 256 objects.
func (c Config) scaleN(n int) int {
	v := int(float64(n) * c.SizeFactor)
	if v < 256 {
		return 256
	}
	return v
}

// scaleTrials scales a nominal trial count, keeping at least 3.
func (c Config) scaleTrials(t int) int {
	v := int(float64(t) * c.TrialFactor)
	if v < 3 {
		return 3
	}
	return v
}

// Experiment couples an index entry with its runner. Claim reads
// "<theorem or section>: <statement>"; Test names the function in
// sim_test.go that asserts the shape of the result.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Test  string
	Run   func(cfg Config) *Table
}

// Table runs the experiment and labels the result with its index entry.
func (e Experiment) Table(cfg Config) *Table {
	t := e.Run(cfg)
	t.ID, t.Title, t.Claim = e.ID, e.Title, e.Claim
	return t
}

// All returns the experiment registry in index order.
func All() []Experiment {
	return []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(),
		e8(), e9(), e10(), e11(), e12(), e13(), e14(),
		e15(), e16(), e18(),
	}
}

// ByID returns the experiment with the given ID, or ok = false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// genFunc builds one trial database from a seed.
type genFunc func(seed uint64) *scoredb.Database

// independent returns a generator of independent uniformly-permuted
// databases under the given law.
func independent(n, m int, law scoredb.GradeLaw) genFunc {
	return func(seed uint64) *scoredb.Database {
		return scoredb.Generator{N: n, M: m, Law: law, Seed: seed}.MustGenerate()
	}
}

// measure runs trials of alg over databases from gen and returns the
// observed unweighted middleware costs (and components).
func measure(alg core.Algorithm, gen genFunc, f agg.Func, k, trials int, seedBase uint64) []cost.Cost {
	out := make([]cost.Cost, trials)
	for i := 0; i < trials; i++ {
		db := gen(seedBase + uint64(i)*7919)
		srcs := make([]subsys.Source, db.M())
		for j := range srcs {
			srcs[j] = subsys.FromList(db.List(j))
		}
		_, c, err := core.Evaluate(context.Background(), alg, srcs, f, k)
		if err != nil {
			panic(err) // experiment misconfiguration is a programming error
		}
		out[i] = c
	}
	return out
}

// measureQuery is measure through the engine: each trial database's
// lists become the subsystems A1…Am (target "*"), and the engine parses,
// plans and evaluates q for the top k.
func measureQuery(q string, gen genFunc, k, trials int, seedBase uint64) []cost.Cost {
	out := make([]cost.Cost, trials)
	for i := 0; i < trials; i++ {
		db := gen(seedBase + uint64(i)*7919)
		subs := make([]subsys.Subsystem, db.M())
		for j := range subs {
			st := subsys.NewStatic(fmt.Sprintf("A%d", j+1), db.N())
			st.Set("*", db.List(j))
			subs[j] = st
		}
		eng, err := middleware.New(subs)
		if err != nil {
			panic(err)
		}
		rep, err := eng.QueryString(context.Background(), q, middleware.TopN(k))
		if err != nil {
			panic(err) // experiment misconfiguration is a programming error
		}
		out[i] = rep.Cost
	}
	return out
}

// sums extracts unweighted middleware costs.
func sums(cs []cost.Cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.Sum())
	}
	return out
}

// sorteds extracts sorted access costs.
func sorteds(cs []cost.Cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.Sorted)
	}
	return out
}

// randoms extracts random access costs.
func randoms(cs []cost.Cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.Random)
	}
	return out
}

// theoryCost is the paper's Θ quantity N^((m−1)/m) · k^(1/m).
func theoryCost(n, m, k int) float64 {
	fm := float64(m)
	return math.Pow(float64(n), (fm-1)/fm) * math.Pow(float64(k), 1/fm)
}

// fitExponent fits mean cost against N and returns the exponent.
func fitExponent(ns []int, means []float64) float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	fit, err := stats.FitPower(xs, means)
	if err != nil {
		return math.NaN()
	}
	return fit.Exponent
}
