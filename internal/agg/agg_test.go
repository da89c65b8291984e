package agg

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMinMaxBasics(t *testing.T) {
	if got := Min.Apply([]float64{0.3, 0.7, 0.5}); got != 0.3 {
		t.Errorf("Min = %v, want 0.3", got)
	}
	if got := Max.Apply([]float64{0.3, 0.7, 0.5}); got != 0.7 {
		t.Errorf("Max = %v, want 0.7", got)
	}
	if got := Min.Apply(nil); got != 1 {
		t.Errorf("empty Min = %v, want 1", got)
	}
	if got := Max.Apply(nil); got != 0 {
		t.Errorf("empty Max = %v, want 0", got)
	}
}

func TestPropositionalConservation(t *testing.T) {
	// Restricted to {0,1} grades, min/max must reduce to Boolean and/or.
	bools := []float64{0, 1}
	for _, a := range bools {
		for _, b := range bools {
			and := 0.0
			if a == 1 && b == 1 {
				and = 1
			}
			or := 0.0
			if a == 1 || b == 1 {
				or = 1
			}
			if got := Min.Apply([]float64{a, b}); got != and {
				t.Errorf("Min(%v,%v) = %v, want %v", a, b, got, and)
			}
			if got := Max.Apply([]float64{a, b}); got != or {
				t.Errorf("Max(%v,%v) = %v, want %v", a, b, got, or)
			}
		}
	}
	// The arithmetic mean does NOT conserve propositional semantics
	// (Section 3: mean(0,1) = 1/2, not 0).
	if got := ArithmeticMean.Apply([]float64{0, 1}); got != 0.5 {
		t.Errorf("mean(0,1) = %v, want 0.5", got)
	}
}

func TestNegate(t *testing.T) {
	if Negate(0) != 1 || Negate(1) != 0 || Negate(0.25) != 0.75 {
		t.Error("Negate is not 1-x")
	}
}

func TestTNormAxioms(t *testing.T) {
	for _, tn := range TNorms() {
		tn := tn
		t.Run(tn.Name(), func(t *testing.T) {
			if err := CheckTNormAxioms(tn, 12); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCoNormAxioms(t *testing.T) {
	for _, sn := range CoNorms() {
		sn := sn
		t.Run(sn.Name(), func(t *testing.T) {
			if err := CheckCoNormAxioms(sn, 12); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDualityRoundTrip(t *testing.T) {
	// The dual of the dual is the original (De Morgan through 1-x).
	for _, tn := range TNorms() {
		dd := DualTNorm(DualCoNorm(tn))
		for _, x := range grid(10) {
			for _, y := range grid(10) {
				if math.Abs(dd.Combine(x, y)-tn.Combine(x, y)) > 1e-9 {
					t.Errorf("%s: double dual differs at (%v,%v)", tn.Name(), x, y)
				}
			}
		}
	}
}

func TestCataloguedDualsMatchDerivedDuals(t *testing.T) {
	pairs := []struct {
		tn TNorm
		sn CoNorm
	}{
		{MinNorm, MaxNorm},
		{DrasticProduct, DrasticSum},
		{BoundedDifference, BoundedSum},
		{EinsteinProduct, EinsteinSum},
		{AlgebraicProduct, AlgebraicSum},
		{HamacherProduct, HamacherSum},
	}
	for _, p := range pairs {
		derived := DualCoNorm(p.tn)
		for _, x := range grid(10) {
			for _, y := range grid(10) {
				if math.Abs(derived.Combine(x, y)-p.sn.Combine(x, y)) > 1e-9 {
					t.Errorf("dual of %s != %s at (%v,%v): %v vs %v",
						p.tn.Name(), p.sn.Name(), x, y, derived.Combine(x, y), p.sn.Combine(x, y))
				}
			}
		}
	}
}

func TestTNormOrdering(t *testing.T) {
	// Every t-norm lies between drastic product and min (the envelope from
	// which strictness follows).
	for _, tn := range TNorms() {
		if err := VerifyEnvelope(tn, 20); err != nil {
			t.Error(err)
		}
	}
}

func TestMetadataMatchesBehaviourMonotone(t *testing.T) {
	funcs := []Func{Min, Max, ArithmeticMean, GeometricMean, Median, Gymnastics,
		AlgebraicProduct, EinsteinProduct, HamacherProduct, BoundedDifference, DrasticProduct}
	for _, f := range funcs {
		if !f.Monotone() {
			t.Errorf("%s claims non-monotone", f.Name())
			continue
		}
		for _, arity := range []int{2, 3, 5} {
			if err := VerifyMonotone(f, arity, 500, 42); err != nil {
				t.Errorf("arity %d: %v", arity, err)
			}
		}
	}
}

func TestMetadataMatchesBehaviourStrict(t *testing.T) {
	strict := []Func{Min, ArithmeticMean, GeometricMean,
		AlgebraicProduct, EinsteinProduct, HamacherProduct, BoundedDifference, DrasticProduct}
	for _, f := range strict {
		if !f.Strict() {
			t.Errorf("%s claims non-strict", f.Name())
			continue
		}
		for _, arity := range []int{2, 3, 5} {
			if err := VerifyStrict(f, arity, 500, 43); err != nil {
				t.Errorf("arity %d: %v", arity, err)
			}
		}
	}
	// Non-strict examples: max = 1 with a non-1 argument; median likewise.
	if VerifyStrict(Max, 2, 100, 44) == nil {
		// VerifyStrict degrades a random subset; it must find the case
		// where only one coordinate is degraded.
		t.Error("VerifyStrict failed to refute strictness of max")
	}
	if VerifyStrict(Median, 3, 200, 45) == nil {
		t.Error("VerifyStrict failed to refute strictness of median")
	}
}

func TestMedianValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{0.1, 0.5, 0.9}, 0.5},
		{[]float64{0.9, 0.1, 0.5}, 0.5},
		{[]float64{0.2, 0.2, 0.8}, 0.2},
		{[]float64{0.3}, 0.3},
		{[]float64{0.3, 0.7}, 0.3}, // lower median for even arity
		{[]float64{0.1, 0.2, 0.6, 0.8, 0.9}, 0.6},
		{nil, 0},
	}
	for _, c := range cases {
		if got := Median.Apply(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The identity behind Remark 6.1: median(a,b,c) =
// max(min(a,b), min(a,c), min(b,c)).
func TestMedianMinMaxIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		med := Median.Apply([]float64{a, b, c})
		viaMinMax := Max.Apply([]float64{
			Min.Apply([]float64{a, b}),
			Min.Apply([]float64{a, c}),
			Min.Apply([]float64{b, c}),
		})
		return math.Abs(med-viaMinMax) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Generalized identity: the j-th largest equals the max over j-subsets of
// the min over the subset.
func TestOrderStatisticSubsetIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 22))
		m := 2 + rng.IntN(4) // 2..5
		j := 1 + rng.IntN(m)
		gs := make([]float64, m)
		for i := range gs {
			gs[i] = rng.Float64()
		}
		direct := OrderStatistic(j).Apply(gs)
		best := 0.0
		for _, subset := range Subsets(m, j) {
			min := 1.0
			for _, idx := range subset {
				if gs[idx] < min {
					min = gs[idx]
				}
			}
			if min > best {
				best = min
			}
		}
		return math.Abs(direct-best) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOrderStatisticEdges(t *testing.T) {
	if got := OrderStatistic(1).Apply([]float64{0.2, 0.8}); got != 0.8 {
		t.Errorf("1st largest = %v, want 0.8", got)
	}
	if got := OrderStatistic(2).Apply([]float64{0.2, 0.8}); got != 0.2 {
		t.Errorf("2nd largest = %v, want 0.2", got)
	}
	if got := OrderStatistic(3).Apply([]float64{0.2, 0.8}); got != 0 {
		t.Errorf("overflow order statistic = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("OrderStatistic(0) should panic")
		}
	}()
	OrderStatistic(0)
}

func TestGymnastics(t *testing.T) {
	// Drop 0.1 and 0.9, average the rest.
	if got := Gymnastics.Apply([]float64{0.9, 0.5, 0.3, 0.1}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Gymnastics = %v, want 0.4", got)
	}
	// Three judges: gymnastics = median.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		gs := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		return math.Abs(Gymnastics.Apply(gs)-Median.Apply(gs)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// All-equal grades must not divide by zero.
	if got := Gymnastics.Apply([]float64{0.5, 0.5, 0.5}); got != 0.5 {
		t.Errorf("Gymnastics(equal) = %v, want 0.5", got)
	}
	if got := Gymnastics.Apply([]float64{0.5, 0.5}); got != 0 {
		t.Errorf("Gymnastics(arity 2) = %v, want 0", got)
	}
}

func TestSubsets(t *testing.T) {
	got := Subsets(4, 2)
	if len(got) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(got))
	}
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("Subsets[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if Subsets(3, 0) == nil || len(Subsets(3, 0)) != 1 {
		t.Error("Subsets(3,0) should be [[]]")
	}
	if Subsets(3, 4) != nil {
		t.Error("Subsets(3,4) should be nil")
	}
}

func TestConstant(t *testing.T) {
	c := Constant(0.4)
	if c.Apply([]float64{0, 1}) != 0.4 || c.Apply(nil) != 0.4 {
		t.Error("Constant does not ignore arguments")
	}
	if !c.Monotone() || c.Strict() {
		t.Error("Constant metadata wrong")
	}
}

func TestIteratedTNormAgainstDirectMin(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 24))
		m := 1 + rng.IntN(6)
		gs := make([]float64, m)
		for i := range gs {
			gs[i] = rng.Float64()
		}
		return math.Abs(MinNorm.Apply(gs)-Min.Apply(gs)) < 1e-12 &&
			math.Abs(MaxNorm.Apply(gs)-Max.Apply(gs)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGeometricMean(t *testing.T) {
	if got := GeometricMean.Apply([]float64{0.25, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("geomean(0.25, 1) = %v, want 0.5", got)
	}
	if got := GeometricMean.Apply([]float64{0, 0.5}); got != 0 {
		t.Errorf("geomean with a 0 = %v, want 0", got)
	}
	if got := GeometricMean.Apply(nil); got != 1 {
		t.Errorf("empty geomean = %v, want 1", got)
	}
}
