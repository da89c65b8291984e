package core

import (
	"fmt"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// FilterFirst is the evaluation plan the paper sketches at the start of
// Section 4 for conjunctions with a selective traditional conjunct, as in
//
//	(Artist = "Beatles") ∧ (AlbumColor = "red"):
//
// first determine every object that satisfies the crisp conjunct (grade
// exactly 1), then use random access to fetch the remaining grades for
// just those objects. Under min, any object failing the crisp conjunct
// has overall grade 0, so the perfect matches plus an arbitrary
// zero-grade fill are a correct top-k.
//
// The driving list must be binary (grades 0 or 1), which is what the
// relational subsystems produce. The middleware cost is
// s·N + 1 + (m−1)·s·N where s is the conjunct's selectivity — excellent
// when s is small (the "not many Beatles albums" assumption), linear when
// it is not; A₀ is the general-purpose choice.
type FilterFirst struct {
	// Drive selects the binary list index to filter on.
	Drive int
}

// ErrNotBinary reports a driving list with grades other than 0 and 1.
var ErrNotBinary = fmt.Errorf("core: filter-first driving list is not binary")

// Name implements Algorithm.
func (f FilterFirst) Name() string { return "filter-first" }

// TopK implements Algorithm. The aggregation function must behave as min.
func (f FilterFirst) TopK(ec *ExecContext, lists []*subsys.Counted, t agg.Func, k int) ([]Result, error) {
	n, err := checkArgs(lists, k)
	if err != nil {
		return nil, err
	}
	if f.Drive < 0 || f.Drive >= len(lists) {
		return nil, fmt.Errorf("%w: drive list %d of %d", ErrArity, f.Drive, len(lists))
	}
	drive := subsys.NewCursor(lists[f.Drive])
	driveOnly := []*subsys.Cursor{drive}

	// Sorted access on the driving list: perfect matches arrive first.
	// One extra access (the first non-1 grade) proves completeness; it
	// must be 0 or the list is not binary.
	var matches []int
	for !drive.Exhausted() {
		if err := ec.Stage(driveOnly, 1); err != nil {
			return nil, err
		}
		if err := ec.Reserve(1, 0); err != nil {
			return nil, err
		}
		e, ok := drive.Next()
		if !ok {
			break
		}
		if e.Grade == 1 {
			matches = append(matches, e.Object)
			continue
		}
		if e.Grade != 0 {
			return nil, fmt.Errorf("%w: grade %v", ErrNotBinary, e.Grade)
		}
		break
	}

	// Random access for the matches only.
	sc := acquireScratch(lists)
	defer ec.releaseScratch(sc)
	entries, err := ec.appendScores(sc, lists, matches, t, sc.entriesBuf())
	if err != nil {
		sc.keepEntries(entries)
		return nil, err
	}

	// If the crisp conjunct has fewer than k perfect matches, every
	// remaining object grades 0 under min; fill with the smallest ids.
	if len(entries) < k {
		for _, e := range entries {
			sc.visit(e.Object)
		}
		for obj := 0; obj < n && len(entries) < k; obj++ {
			if sc.countOf(obj) == 0 {
				entries = append(entries, gradedset.Entry{Object: obj, Grade: 0})
			}
		}
	}
	sc.keepEntries(entries)
	return topKResults(entries, k), nil
}
