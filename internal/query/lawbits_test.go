package query

import (
	"math/rand/v2"
	"testing"

	"fuzzydb/internal/agg"
)

// randomWeightedTree draws a random query over four atoms: And and Or of
// two or three children, each child weighted (0 to 3, zero included)
// one time in three, and Not.
func randomWeightedTree(rng *rand.Rand, depth int) Node {
	atoms := []Atomic{{"A", "x"}, {"B", "y"}, {"C", "z"}, {"D", "w"}}
	if depth == 0 || rng.IntN(3) == 0 {
		return atoms[rng.IntN(len(atoms))]
	}
	op := rng.IntN(3)
	if op == 2 {
		return Not{Child: randomWeightedTree(rng, depth-1)}
	}
	kids := make([]Node, 2+rng.IntN(2))
	for i := range kids {
		kids[i] = randomWeightedTree(rng, depth-1)
		if rng.IntN(3) == 0 {
			kids[i] = Weighted{Child: kids[i], Weight: float64(rng.IntN(4))}
		}
	}
	if op == 0 {
		return And{Children: kids}
	}
	return Or{Children: kids}
}

// TestCompiledLawBitsHoldProperty: the Monotone and Strict bits Compile
// derives for a query are what the planner, shard fencing and the result
// cache trust (Theorems 4.2 and 6.5). Over random trees × semantics,
// compiled both as written and after the semantics' sound rewrite, a
// claimed bit must survive the sampled checkers, and each bit must be
// claimed both ways somewhere, so the check is not vacuous.
func TestCompiledLawBitsHoldProperty(t *testing.T) {
	meanAnd := Semantics{And: agg.ArithmeticMean, Or: agg.Max, Not: agg.Negate}
	geoAnd := Semantics{And: agg.GeometricMean, Or: agg.Max, Not: agg.Negate}
	sems := []Semantics{
		Standard(),
		WithTNorm(agg.AlgebraicProduct),
		WithTNorm(agg.EinsteinProduct),
		WithTNorm(agg.HamacherProduct),
		WithTNorm(agg.BoundedDifference),
		WithTNorm(agg.DrasticProduct),
		meanAnd,
		geoAnd,
	}
	const trees, samples = 2000, 64
	rng := rand.New(rand.NewPCG(1996, 0x1a3))
	var monotone, strict [2]int // [false, true] counts
	compiled := 0
	for i := 0; i < trees; i++ {
		q := randomWeightedTree(rng, 3)
		for si, sem := range sems {
			for _, n := range []Node{q, Rewrite(q, RulesFor(sem))} {
				c, err := Compile(n, sem)
				if err != nil {
					continue // every weight of a connective zero
				}
				compiled++
				f, arity, seed := c.Func, len(c.Atoms), uint64(i*len(sems)+si)
				if f.Monotone() {
					monotone[1]++
					if err := agg.VerifyMonotone(f, arity, samples, seed); err != nil {
						t.Errorf("sem %d, %s: claimed monotone: %v", si, n, err)
					}
				} else {
					monotone[0]++
				}
				if f.Strict() {
					strict[1]++
					if err := agg.VerifyStrict(f, arity, samples, seed); err != nil {
						t.Errorf("sem %d, %s: claimed strict: %v", si, n, err)
					}
				} else {
					strict[0]++
				}
			}
		}
	}
	if compiled < trees*len(sems) {
		t.Errorf("only %d of %d compilations succeeded", compiled, 2*trees*len(sems))
	}
	if monotone[0] == 0 || monotone[1] == 0 || strict[0] == 0 || strict[1] == 0 {
		t.Errorf("a bit never varied: monotone false/true %v, strict false/true %v", monotone, strict)
	}
}
