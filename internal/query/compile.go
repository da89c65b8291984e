package query

import (
	"fmt"

	"fuzzydb/internal/agg"
)

// Shape classifies a query for the planner.
type Shape int

const (
	// ShapeAtom is a single atomic query.
	ShapeAtom Shape = iota
	// ShapeConjunction is a conjunction whose children are all atoms.
	ShapeConjunction
	// ShapeDisjunction is a disjunction whose children are all atoms.
	ShapeDisjunction
	// ShapeOther is any other Boolean combination.
	ShapeOther
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeAtom:
		return "atom"
	case ShapeConjunction:
		return "conjunction"
	case ShapeDisjunction:
		return "disjunction"
	default:
		return "other"
	}
}

// Compiled is a query flattened for execution: the distinct atomic
// subqueries (each to be answered by one subsystem) plus one derived
// aggregation function over their grade vector. The derived function's
// Monotone/Strict metadata is computed structurally and drives algorithm
// selection exactly as in the paper: monotone ⇒ A₀-family applies
// (Theorem 4.2); monotone and strict ⇒ the Θ bound applies (Theorem 6.5);
// non-monotone (negation) ⇒ only the naive algorithm is safe (Section 7).
type Compiled struct {
	Atoms []Atomic
	Func  agg.Func
	Shape Shape
}

// Compile flattens q under the given semantics. Duplicate atoms (same
// attribute and target) share one coordinate, so A ∧ A queries one
// subsystem once.
func Compile(q Node, sem Semantics) (*Compiled, error) {
	if err := sem.Validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("query: nil query")
	}
	c := &compiler{sem: sem, index: make(map[Atomic]int)}
	root, err := c.walk(q)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Atoms: c.atoms,
		Func: compiledFunc{
			name:     "compiled(" + q.String() + ")",
			root:     root,
			arity:    len(c.atoms),
			sem:      sem,
			monotone: root.monotone(sem),
			strict:   root.strict(sem),
		},
		Shape: shapeOf(q),
	}, nil
}

func shapeOf(q Node) Shape {
	switch n := q.(type) {
	case Atomic:
		return ShapeAtom
	case And:
		// Weighted children change the aggregation away from the bare
		// connective, so the min-specific plans must not fire: classify
		// as Other.
		for _, ch := range n.Children {
			if _, ok := ch.(Atomic); !ok {
				return ShapeOther
			}
		}
		return ShapeConjunction
	case Or:
		for _, ch := range n.Children {
			if _, ok := ch.(Atomic); !ok {
				return ShapeOther
			}
		}
		return ShapeDisjunction
	default:
		return ShapeOther
	}
}

// compiler assigns coordinates to distinct atoms and builds an evaluation
// tree mirroring the AST.
type compiler struct {
	sem   Semantics
	atoms []Atomic
	index map[Atomic]int
}

func (c *compiler) walk(q Node) (evalNode, error) {
	switch n := q.(type) {
	case Atomic:
		i, ok := c.index[n]
		if !ok {
			i = len(c.atoms)
			c.index[n] = i
			c.atoms = append(c.atoms, n)
		}
		return leafNode(i), nil
	case And:
		if len(n.Children) == 0 {
			return nil, fmt.Errorf("query: empty conjunction")
		}
		kids, weights, err := c.walkAll(n.Children)
		if err != nil {
			return nil, err
		}
		return c.connective(opAnd, kids, weights)
	case Or:
		if len(n.Children) == 0 {
			return nil, fmt.Errorf("query: empty disjunction")
		}
		kids, weights, err := c.walkAll(n.Children)
		if err != nil {
			return nil, err
		}
		return c.connective(opOr, kids, weights)
	case Not:
		if n.Child == nil {
			return nil, fmt.Errorf("query: NOT of nothing")
		}
		kid, err := c.walk(n.Child)
		if err != nil {
			return nil, err
		}
		return opNode{op: opNot, kids: []evalNode{kid}}, nil
	case Weighted:
		return nil, fmt.Errorf("query: weight outside a conjunction or disjunction")
	default:
		return nil, fmt.Errorf("query: unknown node type %T", q)
	}
}

// walkAll compiles children, peeling Weighted wrappers. weights is nil
// when no child is weighted; otherwise it has one entry per child
// (unweighted children default to 1).
func (c *compiler) walkAll(children []Node) ([]evalNode, []float64, error) {
	kids := make([]evalNode, len(children))
	weights := make([]float64, len(children))
	any := false
	for i, ch := range children {
		weights[i] = 1
		if w, ok := ch.(Weighted); ok {
			if w.Weight < 0 {
				return nil, nil, fmt.Errorf("query: negative weight %v", w.Weight)
			}
			if w.Child == nil {
				return nil, nil, fmt.Errorf("query: weight on nothing")
			}
			any = true
			weights[i] = w.Weight
			ch = w.Child
		}
		k, err := c.walk(ch)
		if err != nil {
			return nil, nil, err
		}
		kids[i] = k
	}
	if !any {
		return kids, nil, nil
	}
	return kids, weights, nil
}

// connective builds the evaluation node for And/Or, attaching the
// Fagin–Wimmers weighted form of the connective when weights are present.
func (c *compiler) connective(op opKind, kids []evalNode, weights []float64) (evalNode, error) {
	node := opNode{op: op, kids: kids}
	if weights == nil {
		node.flat = true
		for i, k := range kids {
			if k != leafNode(i) {
				node.flat = false
				break
			}
		}
		return node, nil
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("query: weights sum to %v", sum)
	}
	normalized := make([]float64, len(weights))
	for i, w := range weights {
		normalized[i] = w / sum
	}
	base := c.sem.And
	if op == opOr {
		base = c.sem.Or
	}
	wf, err := agg.NewWeighted(base, normalized)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	node.weighted = wf
	return node, nil
}

// evalNode evaluates one AST node over the atom grade vector.
type evalNode interface {
	eval(sem Semantics, gs []float64) float64
	monotone(sem Semantics) bool
	strict(sem Semantics) bool
}

// leafNode reads coordinate i: the grade of the i-th distinct atom.
type leafNode int

func (l leafNode) eval(_ Semantics, gs []float64) float64 { return gs[l] }
func (l leafNode) monotone(Semantics) bool                { return true }
func (l leafNode) strict(Semantics) bool                  { return true }

type opKind int

const (
	opAnd opKind = iota
	opOr
	opNot
)

type opNode struct {
	op   opKind
	kids []evalNode
	// weighted, when set, replaces the bare connective with its
	// Fagin–Wimmers weighted form over the children's values.
	weighted *agg.Weighted
	// flat marks an unweighted connective whose children are exactly the
	// leaves 0…n−1 in order (every flat conjunction or disjunction): the
	// children's values are then gs[:n] itself, so eval applies the
	// connective to it without building the values slice. Decided once,
	// at compile time.
	flat bool
}

func (o opNode) eval(sem Semantics, gs []float64) float64 {
	switch o.op {
	case opNot:
		return sem.Not(o.kids[0].eval(sem, gs))
	default:
		var vals []float64
		if o.flat {
			vals = gs[:len(o.kids)]
		} else {
			vals = make([]float64, len(o.kids))
			for i, k := range o.kids {
				vals[i] = k.eval(sem, gs)
			}
		}
		if o.weighted != nil {
			return o.weighted.Apply(vals)
		}
		if o.op == opAnd {
			return sem.And.Apply(vals)
		}
		return sem.Or.Apply(vals)
	}
}

func (o opNode) monotone(sem Semantics) bool {
	if o.op == opNot {
		// The standard negation (and any decreasing rule) destroys
		// monotonicity — except over a constant subtree, a case not worth
		// special-casing; the planner simply falls back to naive.
		return false
	}
	var conn agg.Func = sem.And
	if o.op == opOr {
		conn = sem.Or
	}
	if o.weighted != nil {
		conn = o.weighted
	}
	if !conn.Monotone() {
		return false
	}
	for _, k := range o.kids {
		if !k.monotone(sem) {
			return false
		}
	}
	return true
}

func (o opNode) strict(sem Semantics) bool {
	switch o.op {
	case opNot:
		return false
	case opOr:
		// A disjunction is 1 as soon as one disjunct is 1 under any
		// co-norm, so strictness is lost unless there is a single child.
		if len(o.kids) > 1 {
			return false
		}
		return o.kids[0].strict(sem)
	default:
		conn := sem.And
		if o.weighted != nil {
			conn = o.weighted
		}
		if !conn.Strict() {
			return false
		}
		for _, k := range o.kids {
			if !k.strict(sem) {
				return false
			}
		}
		return true
	}
}

// compiledFunc adapts an evaluation tree to the agg.Func interface.
type compiledFunc struct {
	name     string
	root     evalNode
	arity    int
	sem      Semantics
	monotone bool
	strict   bool
}

func (f compiledFunc) Name() string { return f.name }

func (f compiledFunc) Apply(gs []float64) float64 {
	if len(gs) != f.arity {
		panic(fmt.Sprintf("query: compiled function got %d grades, want %d", len(gs), f.arity))
	}
	return f.root.eval(f.sem, gs)
}

func (f compiledFunc) Monotone() bool { return f.monotone }
func (f compiledFunc) Strict() bool   { return f.strict }
