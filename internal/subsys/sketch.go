package subsys

import (
	"sort"

	"fuzzydb/internal/gradedset"
)

// DefaultSketchBuckets is the bucket count of a grade-distribution
// sketch: fine enough that a planner cutting the universe at sketch
// boundaries lands within ~1.5% of the ideal cut on any monotone mass
// profile, coarse enough that a sketch is a few hundred bytes.
const DefaultSketchBuckets = 64

// DefaultSketchProbes is how many random accesses SampleSketch issues
// against an opaque source: enough strided probes to place 64 equi-depth
// boundaries with useful accuracy, few enough that sketching a remote
// list costs a bounded, one-time burst.
const DefaultSketchProbes = 512

// Sketch is an equi-depth histogram of one list's grade mass over the
// dense object-id axis {0,…,N−1}: bucket i covers the ids
// [Cuts[i], Cuts[i+1]) and carries Mass[i], the total grade mass of
// those ids. Buckets hold near-equal mass (not near-equal width), so
// where grades concentrate the id axis is resolved finely — exactly
// where a skew-aware shard planner needs precision.
//
// Sketches are planning metadata, never measurement: building one reads
// the raw list or source directly, outside any Counted, so the Section 5
// sorted/random tallies of every evaluation are untouched by sketching.
// A sketch describes the list at build time; mutable subsystems
// invalidate their cached sketches when their epoch advances.
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

// sketchFromGrades builds the equi-depth sketch of per-id grade masses
// g[0..n-1] with up to `buckets` buckets: one pass accumulating mass,
// emitting a boundary whenever a bucket has swallowed its fair share.
func sketchFromGrades(g []float64, buckets int) *Sketch {
	n := len(g)
	if buckets < 1 {
		buckets = DefaultSketchBuckets
	}
	if buckets > n {
		buckets = n
	}
	s := &Sketch{N: n, Cuts: []int{0}}
	if n == 0 {
		s.Cuts = append(s.Cuts, 0)
		s.Mass = []float64{0}
		return s
	}
	var total float64
	for _, v := range g {
		total += v
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

// SketchList builds the exact grade-distribution sketch of a graded
// list in one O(N) pass over the dense universe, reading grades through
// the list's flat rank index — no metered access, no sorting.
func SketchList(l *gradedset.List) *Sketch {
	n := l.Len()
	g := make([]float64, n)
	for id := 0; id < n; id++ {
		v, err := l.Grade(id)
		if err == nil {
			g[id] = v
		}
	}
	return sketchFromGrades(g, DefaultSketchBuckets)
}

// SampleSketch approximates the sketch of an opaque source by probing
// `probes` evenly strided ids with raw (unmetered, unmemoized) random
// access and interpolating the mass between samples. probes <= 0 selects
// DefaultSketchProbes. The probes go straight to the source — never
// through a Counted — so the Section 5 tallies of any evaluation over
// the same source are untouched; remote sources pay the probe burst in
// wall-clock only — and through its fallible face, since the plain face
// of a remote source panics on a transport failure: a failed probe
// yields a nil sketch, which the planners skip (the even split).
// Deterministic: the same source yields the same sketch.
func SampleSketch(src Source, probes int) *Sketch {
	n := src.Len()
	if probes <= 0 {
		probes = DefaultSketchProbes
	}
	if probes > n {
		probes = n
	}
	if n == 0 || probes == 0 {
		return sketchFromGrades(nil, DefaultSketchBuckets)
	}
	// Sample ids at stride centers, then spread each sample's grade over
	// its stride: g approximates the per-id mass profile at probe
	// resolution.
	g := make([]float64, n)
	try := FacesOf(src).Try
	for i := 0; i < probes; i++ {
		lo := i * n / probes
		hi := (i + 1) * n / probes
		if hi <= lo {
			continue
		}
		mid := lo + (hi-lo)/2
		v, err := try.TryGrade(mid)
		if err != nil {
			return nil
		}
		for id := lo; id < hi; id++ {
			g[id] = v
		}
	}
	return sketchFromGrades(g, DefaultSketchBuckets)
}

// GradeSketcher is the optional capability of a Subsystem that can
// serve grade-distribution sketches for its targets — built once at
// load (or first request) and cached, so planners get them for free.
// Subsystems without the capability are sketched by sampling, or the
// planner degenerates to the even split.
type GradeSketcher interface {
	// GradeSketch returns the sketch of the list served for target, or
	// nil when the target is unknown.
	GradeSketch(target string) *Sketch
}

// mergedCuts returns the ascending union of the sketches' bucket
// boundaries restricted to (0, n), plus 0 and n themselves: the finest
// grid on which every sketch is piecewise-uniform. Nil sketches and
// sketches over a different universe are skipped.
func mergedCuts(n int, sketches []*Sketch) []int {
	seen := map[int]bool{0: true, n: true}
	cuts := []int{0, n}
	for _, s := range sketches {
		if s == nil || s.N != n {
			continue
		}
		for _, c := range s.Cuts {
			if c > 0 && c < n && !seen[c] {
				seen[c] = true
				cuts = append(cuts, c)
			}
		}
	}
	sort.Ints(cuts)
	return cuts
}

// MergedCuts is the exported form of the planners' boundary grid; see
// core.PlanShardsWeighted.
func MergedCuts(n int, sketches []*Sketch) []int { return mergedCuts(n, sketches) }
