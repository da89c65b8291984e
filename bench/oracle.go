package main

import (
	"fmt"
	"sort"

	"fuzzydb/internal/scoredb"
)

// The oracle is the benchmark's own ground truth. It works on the raw
// grade matrix and shares no code with internal/core: no sorted lists,
// no counters, no executors. It only knows the standard min conjunction,
// because that is the only law the workloads issue.

// answer is one (object, grade) row of a top-k response.
type answer struct {
	Object int
	Grade  float64
}

// matrix is a database's raw grades: matrix[list][object].
type matrix [][]float64

// matrixOf extracts the raw grade matrix from a generated database.
func matrixOf(db *scoredb.Database) matrix {
	m := make(matrix, db.M())
	for i := range m {
		m[i] = make([]float64, db.N())
		for _, e := range db.List(i).Entries() {
			m[i][e.Object] = e.Grade
		}
	}
	return m
}

// expectation is the brute-force answer to "top k of min(lists...)":
// every object whose aggregate reaches the k-th best aggregate, in the
// canonical order (grade descending, object ascending). class[:k] is the
// canonical top k; the trailing run of class at grade kth is the whole
// tie class, any k-filling choice from which is a correct answer.
type expectation struct {
	k     int
	kth   float64
	class []answer
}

// expect computes the expectation by one pass for the per-object
// aggregates and the k-th best of them, and a second pass that keeps
// every object at or above it.
func (m matrix) expect(lists []int, k int) expectation {
	n := len(m[lists[0]])
	if k > n {
		k = n
	}
	aggs := make([]float64, n)
	best := make([]float64, 0, k) // ascending: best[0] is the k-th best so far
	for obj := 0; obj < n; obj++ {
		g := m[lists[0]][obj]
		for _, l := range lists[1:] {
			if v := m[l][obj]; v < g {
				g = v
			}
		}
		aggs[obj] = g
		if len(best) == k && g <= best[0] {
			continue
		}
		pos := sort.SearchFloat64s(best, g)
		if len(best) < k {
			best = append(best, 0)
			copy(best[pos+1:], best[pos:])
			best[pos] = g
		} else {
			// Drop the current k-th best; everything below pos shifts down.
			copy(best[:pos-1], best[1:pos])
			best[pos-1] = g
		}
	}
	exp := expectation{k: k, kth: best[0]}
	for obj, g := range aggs {
		if g >= exp.kth {
			exp.class = append(exp.class, answer{Object: obj, Grade: g})
		}
	}
	sort.Slice(exp.class, func(i, j int) bool {
		a, b := exp.class[i], exp.class[j]
		if a.Grade != b.Grade {
			return a.Grade > b.Grade
		}
		return a.Object < b.Object
	})
	return exp
}

// check verifies a response against the expectation: identical grade
// sequence, identical objects above the k-th grade, and below that a
// duplicate-free choice from the tie class.
func (e expectation) check(got []answer) error {
	if len(got) != e.k {
		return fmt.Errorf("got %d answers, want %d", len(got), e.k)
	}
	tie := make(map[int]bool)
	for _, a := range e.class {
		if a.Grade == e.kth {
			tie[a.Object] = true
		}
	}
	for i, g := range got {
		want := e.class[i]
		if g.Grade != want.Grade {
			return fmt.Errorf("rank %d: grade %v, want %v", i, g.Grade, want.Grade)
		}
		if g.Grade > e.kth {
			if g.Object != want.Object {
				return fmt.Errorf("rank %d: object %d, want %d", i, g.Object, want.Object)
			}
			continue
		}
		if !tie[g.Object] {
			return fmt.Errorf("rank %d: object %d is not in the k-th grade tie class (or repeats)", i, g.Object)
		}
		delete(tie, g.Object)
	}
	return nil
}

// oracle answers expectations for one database, caching them per
// (lists, k) until a write to a member list makes them stale. The
// matrix doubles as the shadow copy that replays a workload's writes.
type oracle struct {
	m       matrix
	version []int // per list: bumped by each write
	cache   map[string]cachedExpectation
}

type cachedExpectation struct {
	exp      expectation
	versions []int
}

func newOracle(db *scoredb.Database) *oracle {
	return &oracle{m: matrixOf(db), version: make([]int, db.M()), cache: make(map[string]cachedExpectation)}
}

// write replays one grade update on the shadow matrix.
func (o *oracle) write(list, obj int, grade float64) {
	o.m[list][obj] = grade
	o.version[list]++
}

// check verifies one response to "top k of min(lists...)".
func (o *oracle) check(lists []int, k int, got []answer) error {
	key := fmt.Sprint(lists, k)
	c, ok := o.cache[key]
	if ok {
		for i, l := range lists {
			if c.versions[i] != o.version[l] {
				ok = false
				break
			}
		}
	}
	if !ok {
		c = cachedExpectation{exp: o.m.expect(lists, k), versions: make([]int, len(lists))}
		for i, l := range lists {
			c.versions[i] = o.version[l]
		}
		o.cache[key] = c
	}
	return c.exp.check(got)
}
