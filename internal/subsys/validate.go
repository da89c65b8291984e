package subsys

import (
	"fmt"
	"sync"

	"fuzzydb/internal/gradedset"
)

// Validated wraps a Source with contract checking: sorted access must
// deliver grades in non-increasing order with no duplicate objects, every
// grade (from either access mode) must lie in [0, 1], and random access
// must agree with what sorted access previously revealed. A subsystem
// that violates the contract would silently corrupt top-k answers — the
// algorithms' correctness proofs all assume sorted order — so violations
// panic with a diagnostic rather than propagate bad grades.
//
// Validated deliberately forwards neither BatchGrader nor
// FallibleSource: its checks are per access on the plain face, and a
// batch handed to the wrapped source whole would bypass them. What it
// remembers of sorted access is mutex-guarded, so it is safe under the
// pipelined executor, which reads one list from several goroutines.
//
// Use it when integrating an untrusted or freshly written subsystem:
//
//	src := subsys.Validated(mySubsystemResult)
type validatedSource struct {
	inner
	mu        sync.Mutex // guards the fields below
	lastRank  int
	lastGrade float64
	seenAt    map[int]int     // object -> first rank delivered
	grades    map[int]float64 // object -> grade from sorted access
}

// Validated wraps src with contract checking.
func Validated(src Source) Source {
	return &validatedSource{
		inner:     wrapping(src),
		lastRank:  -1,
		lastGrade: 1,
		seenAt:    make(map[int]int),
		grades:    make(map[int]float64),
	}
}

// Entry implements Source, checking the sorted-access contract.
func (v *validatedSource) Entry(rank int) gradedset.Entry {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.entry(rank)
}

// entry is Entry with v.mu held.
func (v *validatedSource) entry(rank int) gradedset.Entry {
	e := v.in.Src.Entry(rank)
	if !gradedset.ValidGrade(e.Grade) {
		panic(fmt.Sprintf("subsys: source delivered invalid grade %v at rank %d", e.Grade, rank))
	}
	if prev, dup := v.seenAt[e.Object]; dup && prev != rank {
		panic(fmt.Sprintf("subsys: source delivered object %d at both rank %d and rank %d", e.Object, prev, rank))
	}
	// Order checking applies to the contiguous prefix the middleware
	// actually walks (sorted access is sequential).
	if rank == v.lastRank+1 {
		if e.Grade > v.lastGrade {
			panic(fmt.Sprintf("subsys: source out of order: rank %d grade %v follows grade %v",
				rank, e.Grade, v.lastGrade))
		}
		v.lastRank = rank
		v.lastGrade = e.Grade
	}
	v.seenAt[e.Object] = rank
	v.grades[e.Object] = e.Grade
	return e
}

// Entries implements Source. Each rank in the span passes through the
// same contract checks as a single-rank sorted access, so validation is
// not weakened by batching (at the price of giving up the underlying
// source's zero-copy bulk path — Validated is a debugging wrapper).
func (v *validatedSource) Entries(lo, hi int) []gradedset.Entry {
	out := make([]gradedset.Entry, 0, hi-lo)
	v.mu.Lock()
	defer v.mu.Unlock()
	for r := lo; r < hi; r++ {
		out = append(out, v.entry(r))
	}
	return out
}

// Grade implements Source, checking consistency with sorted access.
func (v *validatedSource) Grade(obj int) float64 {
	g := v.in.Src.Grade(obj)
	if !gradedset.ValidGrade(g) {
		panic(fmt.Sprintf("subsys: source delivered invalid grade %v for object %d", g, obj))
	}
	v.mu.Lock()
	sg, ok := v.grades[obj]
	v.mu.Unlock()
	if ok && sg != g {
		panic(fmt.Sprintf("subsys: source grades object %d as %v under random access but %v under sorted access",
			obj, g, sg))
	}
	return g
}
