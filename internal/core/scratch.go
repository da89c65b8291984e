package core

import (
	"sync"

	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// scratch is the reusable per-query working state of the algorithm
// family: the seen-set, per-object counters, per-object running values,
// and the entries/grades buffers every algorithm fills. The per-object
// state is flat arrays over the universe 0…N−1 with epoch stamping — a
// slot is live iff stamp[obj] == gen, so reuse across queries is O(1)
// with no clearing. Every object an algorithm hands it came out of a
// list's sorted stream, and subsys.Counted delivers no object outside
// 0…Len()−1, so the arrays need no bounds test of their own.
//
// First-touch order is recorded in touched, and algorithms iterate
// objects exclusively through objects().
//
// Instances come from a sync.Pool so concurrent engine queries do not
// allocate Θ(N) state per evaluation; acquire with acquireScratch and
// return with release (after which the scratch must not be used).
//
// The two per-object state families share storage (one stamp guards
// count and val together), so they are MUTUALLY EXCLUSIVE per acquire:
// within one acquire/release window use either visit/countOf or
// offerMax/valOf. Mixing them silently misreads — offerMax would take an
// object visit had stamped for one already offered, and compare against
// a stale val — with no panic to catch it.
type scratch struct {
	gen   uint32
	stamp []uint32
	count []int32
	val   []float64

	touched []int // objects in first-touch order

	entries []gradedset.Entry // shared output staging buffer
	grades  []float64         // shared grade-vector buffer
	cols    []float64         // reusable flat arena (Gather's m×n grade columns)
	colv    [][]float64       // column views into cols
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// acquireScratch draws a scratch from the pool, sized for the universe
// of the given lists: the largest Len(), which covers every object any
// of them can deliver. Pair with release.
func acquireScratch(lists []*subsys.Counted) *scratch {
	s := scratchPool.Get().(*scratch)
	n := 0
	for _, l := range lists {
		n = max(n, l.Len())
	}
	s.touched = s.touched[:0]
	s.entries = s.entries[:0]
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.count = make([]int32, n)
		s.val = make([]float64, n)
		s.gen = 0
	}
	s.stamp = s.stamp[:cap(s.stamp)]
	s.count = s.count[:cap(s.count)]
	s.val = s.val[:cap(s.val)]
	s.gen++
	if s.gen == 0 { // epoch wrap: stale stamps could alias; clear once
		clear(s.stamp)
		s.gen = 1
	}
	return s
}

// release returns the scratch to the pool. Buffers previously obtained
// from it (entriesBuf, gradesBuf, objects) must no longer be referenced.
func (s *scratch) release() { scratchPool.Put(s) }

// visit increments obj's counter and returns the new count; the first
// visit appends obj to the touch order. Algorithms that only need a seen
// set use count==1 as "newly seen".
func (s *scratch) visit(obj int) int32 {
	if s.stamp[obj] != s.gen {
		s.stamp[obj] = s.gen
		s.count[obj] = 1
		s.touched = append(s.touched, obj)
		return 1
	}
	s.count[obj]++
	return s.count[obj]
}

// countOf returns obj's current counter (0 if never visited).
func (s *scratch) countOf(obj int) int32 {
	if s.stamp[obj] != s.gen {
		return 0
	}
	return s.count[obj]
}

// offerMax keeps the running maximum value per object (B₀'s h(x)); the
// first offer appends obj to the touch order.
func (s *scratch) offerMax(obj int, g float64) {
	if s.stamp[obj] != s.gen {
		s.stamp[obj] = s.gen
		s.val[obj] = g
		s.touched = append(s.touched, obj)
	} else if g > s.val[obj] {
		s.val[obj] = g
	}
}

// valOf returns the running value recorded by offerMax.
func (s *scratch) valOf(obj int) float64 { return s.val[obj] }

// objects returns every touched object in first-touch order. The slice
// aliases the scratch and is valid until release.
func (s *scratch) objects() []int { return s.touched }

// entriesBuf returns the shared entries staging buffer, emptied.
func (s *scratch) entriesBuf() []gradedset.Entry {
	s.entries = s.entries[:0]
	return s.entries
}

// keepEntries stores the (possibly re-allocated) buffer back so its
// capacity survives into the next query.
func (s *scratch) keepEntries(es []gradedset.Entry) { s.entries = es }

// gradesBuf returns the shared m-wide grade-vector buffer.
func (s *scratch) gradesBuf(m int) []float64 {
	if cap(s.grades) < m {
		s.grades = make([]float64, m)
	}
	return s.grades[:m]
}

// colsBuf returns m reusable grade columns of length n (one flat backing
// array, sliced), the staging area of the executor's Gather phase. The
// views alias the scratch and are valid until release.
func (s *scratch) colsBuf(m, n int) [][]float64 {
	if cap(s.cols) < m*n {
		s.cols = make([]float64, m*n)
	}
	s.cols = s.cols[:cap(s.cols)]
	if cap(s.colv) < m {
		s.colv = make([][]float64, m)
	}
	s.colv = s.colv[:m]
	for j := 0; j < m; j++ {
		s.colv[j] = s.cols[j*n : (j+1)*n]
	}
	return s.colv
}

// gradesInto fills dst with obj's grade in every list via metered random
// access (free where already known). It is gradesFor without the per-call
// allocation.
func gradesInto(dst []float64, lists []*subsys.Counted, obj int) {
	for j, l := range lists {
		dst[j] = l.Grade(obj)
	}
}
