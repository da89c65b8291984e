package agg

import (
	"fmt"
	"sort"
)

// orderStatistic implements the j-th largest argument as an aggregation
// function. OrderStatistic(1) is max, OrderStatistic(m) on m arguments is
// min, and OrderStatistic((m+1)/2) on odd m is the median.
//
// Order statistics are monotone. They are strict only in the j = arity
// (min) case; the median and its relatives are the paper's showcase
// non-strict functions for which the Θ lower bound fails (Remark 6.1).
type orderStatistic struct {
	j int
}

// OrderStatistic returns the aggregation function selecting the j-th
// largest grade (1-based). It panics if j < 1. Applying it to fewer than j
// grades yields 0.
func OrderStatistic(j int) Func {
	if j < 1 {
		panic(fmt.Sprintf("agg: OrderStatistic(%d): j must be >= 1", j))
	}
	return orderStatistic{j: j}
}

func (o orderStatistic) Name() string {
	if o.j == 1 {
		return "max"
	}
	return fmt.Sprintf("order-statistic-%d", o.j)
}

func (o orderStatistic) Apply(gs []float64) float64 {
	if o.j > len(gs) {
		return 0
	}
	tmp := append([]float64(nil), gs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(tmp)))
	return tmp[o.j-1]
}

func (o orderStatistic) Monotone() bool { return true }

// Strict reports false: for the variadic form there is always some arity
// (> j) at which a 1 can appear among non-1 arguments, e.g.
// OrderStatistic(1)(1, 0) = 1.
func (o orderStatistic) Strict() bool { return false }

// Median is the middle order statistic: for m arguments it returns the
// ⌈(m+1)/2⌉-th largest grade, i.e. the exact median for odd m and the
// lower median for even m. It is monotone but not strict (Remark 6.1), and
// for m = 3 it satisfies the decomposition
//
//	median(a₁,a₂,a₃) = max(min(a₁,a₂), min(a₁,a₃), min(a₂,a₃)),
//
// which yields an O(√(Nk)) evaluation algorithm via three pairwise-min A₀
// runs.
var Median Func = medianFunc{}

type medianFunc struct{}

func (medianFunc) Name() string { return "median" }

func (medianFunc) Apply(gs []float64) float64 {
	m := len(gs)
	if m == 0 {
		return 0
	}
	j := (m + 1 + 1) / 2 // ⌈(m+1)/2⌉: for m=3, j=2; m=5, j=3.
	return orderStatistic{j: j}.Apply(gs)
}

func (medianFunc) Monotone() bool { return true }
func (medianFunc) Strict() bool   { return false }

// Gymnastics models (artistic) gymnastics scoring: drop the single highest
// and single lowest grade and average the rest. With three judges it
// coincides with the median. It is monotone but not strict. It requires at
// least three grades; fewer yield 0.
var Gymnastics Func = gymnasticsFunc{}

type gymnasticsFunc struct{}

func (gymnasticsFunc) Name() string { return "gymnastics" }

func (gymnasticsFunc) Apply(gs []float64) float64 {
	if len(gs) < 3 {
		return 0
	}
	minIdx, maxIdx := 0, 0
	for i, g := range gs {
		if g < gs[minIdx] {
			minIdx = i
		}
		if g > gs[maxIdx] {
			maxIdx = i
		}
	}
	if minIdx == maxIdx { // all equal; drop any two distinct positions
		maxIdx = (minIdx + 1) % len(gs)
	}
	sum, n := 0.0, 0
	for i, g := range gs {
		if i == minIdx || i == maxIdx {
			continue
		}
		sum += g
		n++
	}
	return sum / float64(n)
}

func (gymnasticsFunc) Monotone() bool { return true }
func (gymnasticsFunc) Strict() bool   { return false }

// Subsets enumerates the size-j subsets of {0,…,m−1} in lexicographic
// order.
func Subsets(m, j int) [][]int {
	if j < 0 || j > m {
		return nil
	}
	var out [][]int
	cur := make([]int, 0, j)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == j {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= m-(j-len(cur)); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
