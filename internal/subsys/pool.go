package subsys

import (
	"sync"

	"fuzzydb/internal/gradedset"
)

// denseCache memoizes grades over the universe {0,…,N−1} with an
// epoch-stamped flat array: grades[obj] is valid iff stamp[obj] == gen.
// Reuse is O(1) — bumping gen invalidates every slot at once — so a cache
// drawn from the pool is ready without zeroing N slots, which matters
// because the algorithms touch only a sublinear fraction of them.
type denseCache struct {
	n      int
	gen    uint32
	grades []float64
	stamp  []uint32

	// Buffers of the Counted that holds the cache, pooled with it so their
	// capacity outlives one evaluation: the list's buffered sorted prefix
	// (see Counted.Release) and the staging of one Counted.Grades call.
	prefix []gradedset.Entry
	miss   missBuf
}

// get returns the memoized grade of obj, if known.
func (d *denseCache) get(obj int) (float64, bool) {
	if obj < 0 || obj >= d.n || d.stamp[obj] != d.gen {
		return 0, false
	}
	return d.grades[obj], true
}

// put memoizes the grade of obj. It reports false, memoizing nothing,
// when obj lies outside the universe: the one bounds test that decides
// whether an object belongs to it (see ErrOutsideUniverse).
func (d *denseCache) put(obj int, g float64) bool {
	if obj < 0 || obj >= d.n {
		return false
	}
	d.set(obj, g)
	return true
}

// set is put for an obj the caller has already bounds-checked.
func (d *denseCache) set(obj int, g float64) {
	d.stamp[obj] = d.gen
	d.grades[obj] = g
}

var denseCachePool sync.Pool // of *denseCache

// acquireDenseCache returns a cache ready for a universe of size n, with
// every slot unknown. Concurrent evaluations each acquire their own.
func acquireDenseCache(n int) *denseCache {
	d, _ := denseCachePool.Get().(*denseCache)
	if d == nil || cap(d.stamp) < n {
		return &denseCache{
			n:      n,
			gen:    1,
			grades: make([]float64, n),
			stamp:  make([]uint32, n),
		}
	}
	d.n = n
	d.grades = d.grades[:cap(d.grades)]
	d.stamp = d.stamp[:cap(d.stamp)]
	d.gen++
	if d.gen == 0 { // epoch wrap: stale stamps could alias; clear once
		clear(d.stamp)
		d.gen = 1
	}
	return d
}

// releaseDenseCache returns a cache to the pool for reuse.
func releaseDenseCache(d *denseCache) {
	denseCachePool.Put(d)
}
