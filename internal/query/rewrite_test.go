package query

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"fuzzydb/internal/agg"
)

func TestRewriteDoubleNegation(t *testing.T) {
	q := MustParse(`NOT NOT (A = x AND B = y)`)
	got := Rewrite(q, StandardRules())
	if _, ok := got.(And); !ok {
		t.Fatalf("rewrite = %s, want a conjunction", got)
	}
	// Triple negation keeps one NOT.
	q3 := Not{Child: Not{Child: Not{Child: Atomic{"A", "x"}}}}
	got3 := Rewrite(q3, StandardRules())
	n, ok := got3.(Not)
	if !ok {
		t.Fatalf("triple negation = %s", got3)
	}
	if _, ok := n.Child.(Atomic); !ok {
		t.Fatalf("triple negation = %s", got3)
	}
}

func TestRewriteFlatten(t *testing.T) {
	q := And{Children: []Node{
		And{Children: []Node{Atomic{"A", "x"}, Atomic{"B", "y"}}},
		Atomic{"C", "z"},
	}}
	got := Rewrite(q, StandardRules())
	and, ok := got.(And)
	if !ok || len(and.Children) != 3 {
		t.Fatalf("flatten = %s", got)
	}
	if shapeOf(got) != ShapeConjunction {
		t.Errorf("flattened shape = %v, want conjunction", shapeOf(got))
	}
}

func TestRewriteIdempotentAndCollapse(t *testing.T) {
	q := And{Children: []Node{Atomic{"A", "x"}, Atomic{"A", "x"}}}
	got := Rewrite(q, StandardRules())
	if _, ok := got.(Atomic); !ok {
		t.Fatalf("A AND A = %s, want A", got)
	}
}

func TestRewriteAbsorption(t *testing.T) {
	// A OR (A AND B) -> A
	q := Or{Children: []Node{
		Atomic{"A", "x"},
		And{Children: []Node{Atomic{"A", "x"}, Atomic{"B", "y"}}},
	}}
	got := Rewrite(q, StandardRules())
	if a, ok := got.(Atomic); !ok || a != (Atomic{"A", "x"}) {
		t.Fatalf("absorption = %s, want A", got)
	}
	// A AND (A OR B) -> A
	q2 := And{Children: []Node{
		Atomic{"A", "x"},
		Or{Children: []Node{Atomic{"A", "x"}, Atomic{"B", "y"}}},
	}}
	got2 := Rewrite(q2, StandardRules())
	if a, ok := got2.(Atomic); !ok || a != (Atomic{"A", "x"}) {
		t.Fatalf("absorption (and) = %s, want A", got2)
	}
}

// TestRewriteAbsorbsSupersets pins absorption between siblings of the
// same connective: a disjunct whose conjuncts include all of a sibling's
// goes, dually for conjunctions, and of equal sets in any order the
// first stays.
func TestRewriteAbsorbsSupersets(t *testing.T) {
	a, b, c, d := Atomic{"A", "x"}, Atomic{"B", "y"}, Atomic{"C", "z"}, Atomic{"D", "w"}
	and := func(ns ...Node) Node { return And{Children: ns} }
	or := func(ns ...Node) Node { return Or{Children: ns} }
	cases := []struct {
		name    string
		in, out Node
	}{
		{"superset conjunct", or(and(a, b), and(a, b, c)), and(a, b)},
		{"superset first", or(and(a, b, c), and(a, b)), and(a, b)},
		{"superset disjunct", and(or(a, b), or(c, a, b)), or(a, b)},
		{"equal sets, reordered", or(and(a, b), and(b, a)), and(a, b)},
		{"equal sets, after deduplication", or(and(a, b, a), and(b, a)), and(a, b)},
		{"atom absorbs", or(and(b, c, a), c, and(a, b)), or(c, and(a, b))},
		{"chain", or(and(a, b, c, d), and(a, b, c), and(a, b)), and(a, b)},
		{"overlap only", or(and(a, b), and(a, c)), or(and(a, b), and(a, c))},
		{"median with a redundant disjunct", or(and(a, b), and(a, c), and(b, c), and(a, b, c)), or(and(a, b), and(a, c), and(b, c))},
	}
	for _, tc := range cases {
		if got := Rewrite(tc.in, StandardRules()); !equalNodes(got, tc.out) {
			t.Errorf("%s: %s rewrote to %s, want %s", tc.name, tc.in, got, tc.out)
		}
	}
	// Not sound without min/max: the product keeps every disjunct.
	q := or(and(a, b), and(a, b, c))
	if got := Rewrite(q, RewriteRules{Flatten: true}); !equalNodes(got, q) {
		t.Errorf("without absorption %s rewrote to %s", q, got)
	}
}

func TestRewriteNilAndNoRules(t *testing.T) {
	if Rewrite(nil, StandardRules()) != nil {
		t.Error("Rewrite(nil) != nil")
	}
	q := And{Children: []Node{Atomic{"A", "x"}, Atomic{"A", "x"}}}
	got := Rewrite(q, RewriteRules{})
	and, ok := got.(And)
	if !ok || len(and.Children) != 2 {
		t.Errorf("no-rule rewrite changed the query: %s", got)
	}
}

func TestRulesFor(t *testing.T) {
	std := RulesFor(Standard())
	if !std.Flatten || !std.DoubleNegation || !std.Idempotent || !std.Absorption {
		t.Errorf("standard rules = %+v, want all enabled", std)
	}
	prod := RulesFor(WithTNorm(agg.AlgebraicProduct))
	if !prod.Flatten {
		t.Error("product t-norm is associative; Flatten should be sound")
	}
	if prod.Idempotent || prod.Absorption {
		t.Error("product is not idempotent; dedup rules must be off")
	}
	if !prod.DoubleNegation {
		t.Error("standard negation is involutive under WithTNorm")
	}
	mean := RulesFor(Semantics{And: agg.ArithmeticMean, Or: agg.Max, Not: agg.Negate})
	if mean.Flatten {
		t.Error("the mean is not associative; Flatten must be off")
	}
	none := RulesFor(Semantics{And: agg.Min, Or: agg.Max, Not: func(x float64) float64 { return 1 - x*x }})
	if none.DoubleNegation {
		t.Error("non-involutive negation must disable DoubleNegation")
	}
}

// randomTree draws a random query over a small atom vocabulary.
func randomTree(rng *rand.Rand, depth int) Node {
	atoms := []Atomic{{"A", "x"}, {"B", "y"}, {"C", "z"}}
	if depth == 0 || rng.IntN(3) == 0 {
		return atoms[rng.IntN(len(atoms))]
	}
	switch rng.IntN(3) {
	case 0:
		k := 2 + rng.IntN(2)
		kids := make([]Node, k)
		for i := range kids {
			kids[i] = randomTree(rng, depth-1)
		}
		return And{Children: kids}
	case 1:
		k := 2 + rng.IntN(2)
		kids := make([]Node, k)
		for i := range kids {
			kids[i] = randomTree(rng, depth-1)
		}
		return Or{Children: kids}
	default:
		return Not{Child: randomTree(rng, depth-1)}
	}
}

// The key soundness property: under the standard semantics, rewriting
// never changes the grade of any object (Theorem 3.1 plus involution).
func TestRewritePreservesGradesProperty(t *testing.T) {
	sem := Standard()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 71))
		q := randomTree(rng, 3)
		rq := Rewrite(q, StandardRules())
		grades := map[Atomic]float64{
			{"A", "x"}: rng.Float64(),
			{"B", "y"}: rng.Float64(),
			{"C", "z"}: rng.Float64(),
		}
		evalNode := func(n Node) (float64, bool) {
			c, err := Compile(n, sem)
			if err != nil {
				return 0, false
			}
			gs := make([]float64, len(c.Atoms))
			for i, a := range c.Atoms {
				gs[i] = grades[a]
			}
			return c.Func.Apply(gs), true
		}
		v1, ok1 := evalNode(q)
		v2, ok2 := evalNode(rq)
		if !ok1 || !ok2 {
			return false
		}
		if math.Abs(v1-v2) > 1e-12 {
			t.Logf("seed=%d: %s = %v but %s = %v", seed, q, v1, rq, v2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Under product semantics only the sound subset fires, and grades are
// still preserved.
func TestRewritePreservesGradesUnderProductProperty(t *testing.T) {
	sem := WithTNorm(agg.AlgebraicProduct)
	rules := RulesFor(sem)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 72))
		q := randomTree(rng, 3)
		rq := Rewrite(q, rules)
		grades := map[Atomic]float64{
			{"A", "x"}: rng.Float64(),
			{"B", "y"}: rng.Float64(),
			{"C", "z"}: rng.Float64(),
		}
		evalNode := func(n Node) (float64, bool) {
			c, err := Compile(n, sem)
			if err != nil {
				return 0, false
			}
			gs := make([]float64, len(c.Atoms))
			for i, a := range c.Atoms {
				gs[i] = grades[a]
			}
			return c.Func.Apply(gs), true
		}
		v1, ok1 := evalNode(q)
		v2, ok2 := evalNode(rq)
		if !ok1 || !ok2 {
			return false
		}
		return math.Abs(v1-v2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Rewriting is idempotent: a second pass changes nothing.
func TestRewriteIdempotentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 73))
		q := randomTree(rng, 3)
		r1 := Rewrite(q, StandardRules())
		r2 := Rewrite(r1, StandardRules())
		return equalNodes(r1, r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualNodes(t *testing.T) {
	a := MustParse(`A = x AND (B = y OR NOT C = z)`)
	b := MustParse(`A = x AND (B = y OR NOT C = z)`)
	if !equalNodes(a, b) {
		t.Error("identical parses not equal")
	}
	c := MustParse(`A = x AND (B = y OR NOT C = w)`)
	if equalNodes(a, c) {
		t.Error("different targets compare equal")
	}
	if equalNodes(a, MustParse(`A = x`)) {
		t.Error("different shapes compare equal")
	}
}
