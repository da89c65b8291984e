package query

import (
	"math"
	"testing"
)

// TestFlatConnectiveAppliesWithoutAllocating: a connective over the
// leaves 0…n−1 in order reads the grade vector in place. Anything else —
// a repeated atom, a reordered one, a weight, a nested operator — still
// builds its children's values, and every form computes the same grades
// either way.
func TestFlatConnectiveAppliesWithoutAllocating(t *testing.T) {
	gs := []float64{0.7, 0.2, 0.9}
	for _, tc := range []struct {
		q      string
		want   float64
		allocs float64
	}{
		{`A = x AND B = y AND C = z`, 0.2, 0},
		{`A = x OR B = y OR C = z`, 0.9, 0},
		// The inner conjunction is flat over gs[:2]; the outer disjunction
		// has an operator child and is not.
		{`(A = x AND B = y) OR C = z`, 0.9, 1},
		// Leaves out of order: C, then the flat-looking A ∧ B, whose
		// coordinates are 1 and 2.
		{`C = z OR (A = x AND B = y)`, 0.7, 2},
		{`A = x AND B = y AND A = x AND C = z`, 0.2, 1},
	} {
		c, err := Compile(MustParse(tc.q), Standard())
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Atoms) != len(gs) {
			t.Fatalf("%s: %d atoms, want %d", tc.q, len(c.Atoms), len(gs))
		}
		if got := c.Func.Apply(gs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Apply = %v, want %v", tc.q, got, tc.want)
		}
		if got := testing.AllocsPerRun(100, func() { sinkApply = c.Func.Apply(gs) }); got != tc.allocs {
			t.Errorf("%s: Apply allocates %v times, want %v", tc.q, got, tc.allocs)
		}
	}
}

var sinkApply float64

// BenchmarkFlatConjunctionApply is the computation phase's inner call on
// every flat conjunction the planner hands to the A₀ family: 0 allocs/op.
func BenchmarkFlatConjunctionApply(b *testing.B) {
	c, err := Compile(MustParse(`A = x AND B = y AND C = z`), Standard())
	if err != nil {
		b.Fatal(err)
	}
	gs := []float64{0.7, 0.2, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkApply = c.Func.Apply(gs)
	}
}
