package subsys

import (
	"slices"
	"sort"

	"fuzzydb/internal/gradedset"
)

// DefaultSketchBuckets is the bucket count of a grade-distribution
// sketch: fine enough that a planner cutting the universe at sketch
// boundaries lands within ~1.5% of the ideal cut on any monotone mass
// profile, coarse enough that a sketch is a few hundred bytes.
const DefaultSketchBuckets = 64

// Sketch is an equi-depth histogram of one list's grade mass over the
// dense object-id axis {0,…,N−1}: bucket i covers the ids
// [Cuts[i], Cuts[i+1]) and carries Mass[i], the total grade mass of
// those ids. Buckets hold near-equal mass (not near-equal width), so
// where grades concentrate the id axis is resolved finely — exactly
// where a skew-aware shard planner needs precision.
//
// Sketches are planning metadata, never measurement: building one reads
// the raw list directly, outside any Counted, so the Section 5
// sorted/random tallies of every evaluation are untouched by sketching.
// A sketch is immutable once served: a Mutable subsystem answers a grade
// update with a new sketch (same Cuts, the moved mass shifted between
// buckets), never by writing into one a planner may hold.
type Sketch struct {
	// N is the universe size the sketch describes.
	N int
	// Cuts are the bucket boundaries on the id axis: len(Mass)+1 ids,
	// ascending, Cuts[0] = 0 and Cuts[len(Mass)] = N.
	Cuts []int
	// Mass[i] is the total grade mass of the ids in [Cuts[i], Cuts[i+1]).
	Mass []float64
}

// Buckets returns the number of buckets.
func (s *Sketch) Buckets() int { return len(s.Mass) }

// Total returns the sketch's total grade mass.
func (s *Sketch) Total() float64 {
	var t float64
	for _, m := range s.Mass {
		t += m
	}
	return t
}

// MassBetween estimates the grade mass of the ids in [lo, hi), assuming
// mass is spread uniformly within each bucket (the only assumption an
// equi-depth histogram needs, since heavy regions get narrow buckets).
func (s *Sketch) MassBetween(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > s.N {
		hi = s.N
	}
	if lo >= hi {
		return 0
	}
	var mass float64
	for i := range s.Mass {
		blo, bhi := s.Cuts[i], s.Cuts[i+1]
		if bhi <= lo || blo >= hi {
			continue
		}
		olo, ohi := blo, bhi
		if olo < lo {
			olo = lo
		}
		if ohi > hi {
			ohi = hi
		}
		if w := bhi - blo; w > 0 {
			mass += s.Mass[i] * float64(ohi-olo) / float64(w)
		}
	}
	return mass
}

// withMoved is s after delta of grade mass moved onto obj: a new sketch
// sharing s's Cuts, with a copy of Mass whose bucket holding obj gained
// delta. Per-bucket mass stays exact; the buckets stop being equi-depth,
// which MassBetween's interpolation does not need. s itself is
// untouched, so a planner holding it reads it as it was.
func (s *Sketch) withMoved(obj int, delta float64) *Sketch {
	mass := slices.Clone(s.Mass)
	mass[sort.SearchInts(s.Cuts, obj+1)-1] += delta
	return &Sketch{N: s.N, Cuts: s.Cuts, Mass: mass}
}

// SketchList builds the exact grade-distribution sketch of a graded
// list in one O(N) pass over the dense universe, reading grades through
// the list's flat rank index — no metered access, no sorting — and one
// pass accumulating mass, emitting a boundary whenever a bucket has
// swallowed its fair share of DefaultSketchBuckets.
func SketchList(l *gradedset.List) *Sketch {
	n := l.Len()
	g := make([]float64, n)
	var total float64
	for id := range g {
		if v, err := l.Grade(id); err == nil {
			g[id] = v
			total += v
		}
	}
	buckets := min(DefaultSketchBuckets, n)
	s := &Sketch{N: n, Cuts: []int{0}}
	if n == 0 {
		s.Cuts = append(s.Cuts, 0)
		s.Mass = []float64{0}
		return s
	}
	if total <= 0 {
		// Flat zero mass: fall back to equal-width buckets so the sketch
		// still partitions the axis.
		for i := 1; i <= buckets; i++ {
			s.Cuts = append(s.Cuts, i*n/buckets)
			s.Mass = append(s.Mass, 0)
		}
		return s
	}
	share := total / float64(buckets)
	var acc float64
	for id := 0; id < n; id++ {
		acc += g[id]
		// Emit a boundary once this bucket holds its share — unless doing
		// so would leave fewer ids than buckets still owed.
		remainingBuckets := buckets - len(s.Mass)
		if acc >= share && remainingBuckets > 1 && n-(id+1) >= remainingBuckets-1 {
			s.Cuts = append(s.Cuts, id+1)
			s.Mass = append(s.Mass, acc)
			acc = 0
		}
	}
	s.Cuts = append(s.Cuts, n)
	s.Mass = append(s.Mass, acc)
	return s
}

// GradeSketcher is the optional capability of a Subsystem that can
// serve grade-distribution sketches for its targets — built once at
// load (or first request) and cached, so planners get them for free.
// The lists of a subsystem without the capability are cut into even
// shard ranges: nothing samples them.
type GradeSketcher interface {
	// GradeSketch returns the sketch of the list served for target, or
	// nil when the target is unknown.
	GradeSketch(target string) *Sketch
}

// MergedCuts returns the ascending union of the sketches' bucket
// boundaries restricted to (0, n), plus 0 and n themselves: the finest
// grid on which every sketch is piecewise-uniform, which
// core.PlanShardsWeighted evaluates work on. Nil sketches and sketches
// over a different universe are skipped.
func MergedCuts(n int, sketches []*Sketch) []int {
	cuts := []int{0, n}
	for _, s := range sketches {
		if s == nil || s.N != n {
			continue
		}
		for _, c := range s.Cuts {
			if c > 0 && c < n {
				cuts = append(cuts, c)
			}
		}
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}
