package core

import (
	"sync"

	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// scratch is the reusable per-query working state of the algorithm
// family: the seen-set, per-object counters, per-object running values,
// and the entries/grades buffers every algorithm fills. Over a dense
// universe (every list reports one via subsys.UniverseHinter) the
// per-object state is flat arrays with epoch stamping — a slot is live
// iff stamp[obj] == gen, so reuse across queries is O(1) with no
// clearing. Sparse or unhinted sources fall back to maps.
//
// Both modes record first-touch order in touched, and algorithms iterate
// objects exclusively through objects(). That makes the two modes
// bit-identical in results and in Section 5 access counts: the fallback
// is the same algorithm over a different dictionary, not a different
// algorithm (the equivalence tests pin this).
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
	dense bool
	n     int // universe size when dense

	gen   uint32
	stamp []uint32
	count []int32
	val   []float64

	scount map[int]int32   // sparse fallback for count
	sval   map[int]float64 // sparse fallback for val

	touched []int // objects in first-touch order (both modes)

	entries []gradedset.Entry // shared output staging buffer
	grades  []float64         // shared grade-vector buffer
	cols    []float64         // reusable flat arena (Gather's m×n grade columns)
	colv    [][]float64       // column views into cols
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// denseUniverse reports the common dense universe of the lists, if every
// list declares one.
func denseUniverse(lists []*subsys.Counted) (int, bool) {
	n := 0
	for i, l := range lists {
		u, ok := l.Universe()
		if !ok {
			return 0, false
		}
		if i == 0 {
			n = u
		} else if u != n {
			return 0, false
		}
	}
	return n, true
}

// acquireScratch draws a scratch from the pool, sized and keyed for the
// given lists. Pair with release.
func acquireScratch(lists []*subsys.Counted) *scratch {
	s := scratchPool.Get().(*scratch)
	n, dense := denseUniverse(lists)
	s.dense, s.n = dense, n
	s.touched = s.touched[:0]
	s.entries = s.entries[:0]
	if dense {
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
		s.scount, s.sval = nil, nil
	} else {
		s.scount = make(map[int]int32)
		s.sval = nil
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
	if s.dense {
		if s.stamp[obj] != s.gen {
			s.stamp[obj] = s.gen
			s.count[obj] = 1
			s.touched = append(s.touched, obj)
			return 1
		}
		s.count[obj]++
		return s.count[obj]
	}
	c := s.scount[obj] + 1
	s.scount[obj] = c
	if c == 1 {
		s.touched = append(s.touched, obj)
	}
	return c
}

// countOf returns obj's current counter (0 if never visited).
func (s *scratch) countOf(obj int) int32 {
	if s.dense {
		if s.stamp[obj] != s.gen {
			return 0
		}
		return s.count[obj]
	}
	return s.scount[obj]
}

// offerMax keeps the running maximum value per object (B₀'s h(x)); the
// first offer appends obj to the touch order.
func (s *scratch) offerMax(obj int, g float64) {
	if s.dense {
		if s.stamp[obj] != s.gen {
			s.stamp[obj] = s.gen
			s.val[obj] = g
			s.touched = append(s.touched, obj)
		} else if g > s.val[obj] {
			s.val[obj] = g
		}
		return
	}
	if s.sval == nil {
		s.sval = make(map[int]float64)
	}
	if v, seen := s.sval[obj]; !seen || g > v {
		if !seen {
			s.touched = append(s.touched, obj)
		}
		s.sval[obj] = g
	}
}

// valOf returns the running value recorded by offerMax.
func (s *scratch) valOf(obj int) float64 {
	if s.dense {
		return s.val[obj]
	}
	return s.sval[obj]
}

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
