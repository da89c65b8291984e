package gradedset

import (
	"errors"
	"fmt"
	"sort"
)

// List is a graded set materialized as a descending-grade sequence: the
// form in which a subsystem delivers results under sorted access. A List
// also supports random access (grade lookup by object), so it can model a
// complete subsystem result.
//
// Invariants: entries are sorted by non-increasing grade; each object
// appears at most once; all grades are valid.
//
// Random access is served by one of two indexes. When the object set is
// exactly the dense universe {0,…,N−1} — the shape every scoring database
// and subsystem in this repository produces — ranks live in a flat
// []int32 indexed by object, so Grade/Rank/Contains are array reads.
// Arbitrary (sparse) object ids fall back to a map index.
type List struct {
	entries   []Entry
	rank      map[int]int // object -> position; nil when the dense index is in use
	denseRank []int32     // object -> position over the dense universe; nil when sparse
}

// ErrUnknownObject reports a random access for an object not in the list.
var ErrUnknownObject = errors.New("gradedset: unknown object")

// buildIndex constructs the rank index for es, preferring the dense form.
// It reports the first duplicate object, or -1 if none.
func buildIndex(es []Entry) (denseRank []int32, rank map[int]int, dupAt int) {
	n := len(es)
	dense := true
	for _, e := range es {
		if e.Object < 0 || e.Object >= n {
			dense = false
			break
		}
	}
	if dense {
		denseRank = make([]int32, n)
		for i := range denseRank {
			denseRank[i] = -1
		}
		for i, e := range es {
			if denseRank[e.Object] >= 0 {
				return nil, nil, i
			}
			denseRank[e.Object] = int32(i)
		}
		return denseRank, nil, -1
	}
	rank = make(map[int]int, n)
	for i, e := range es {
		if _, dup := rank[e.Object]; dup {
			return nil, nil, i
		}
		rank[e.Object] = i
	}
	return nil, rank, -1
}

// NewList builds a List from entries, sorting them into canonical order
// (descending grade, ascending object on ties). It rejects invalid grades
// and duplicate objects.
func NewList(entries []Entry) (*List, error) {
	es := make([]Entry, len(entries))
	copy(es, entries)
	SortEntries(es)
	for i, e := range es {
		if err := CheckGrade(e.Grade); err != nil {
			return nil, fmt.Errorf("entry %d (object %d): %w", i, e.Object, err)
		}
	}
	denseRank, rank, dupAt := buildIndex(es)
	if dupAt >= 0 {
		return nil, fmt.Errorf("gradedset: duplicate object %d", es[dupAt].Object)
	}
	return &List{entries: es, rank: rank, denseRank: denseRank}, nil
}

// NewListPresorted builds a List from entries that are already in
// descending-grade order, preserving the given tie order (the "skeleton"
// order of Section 5). It rejects out-of-order input, invalid grades, and
// duplicates.
func NewListPresorted(entries []Entry) (*List, error) {
	es := make([]Entry, len(entries))
	copy(es, entries)
	for i, e := range es {
		if err := CheckGrade(e.Grade); err != nil {
			return nil, fmt.Errorf("entry %d (object %d): %w", i, e.Object, err)
		}
		if i > 0 && es[i].Grade > es[i-1].Grade {
			return nil, fmt.Errorf("gradedset: entries not sorted at position %d", i)
		}
	}
	denseRank, rank, dupAt := buildIndex(es)
	if dupAt >= 0 {
		return nil, fmt.Errorf("gradedset: duplicate object %d", es[dupAt].Object)
	}
	return &List{entries: es, rank: rank, denseRank: denseRank}, nil
}

// FromGradedSet materializes a graded set as a List in canonical order.
func FromGradedSet(s *GradedSet) *List {
	entries := s.Entries()
	denseRank, rank, _ := buildIndex(entries) // no duplicates possible
	return &List{entries: entries, rank: rank, denseRank: denseRank}
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Entry returns the entry at sorted position i (0 is the best match).
// This is one unit of sorted access.
func (l *List) Entry(i int) Entry { return l.entries[i] }

// DenseUniverse reports whether the list's object set is exactly
// {0,…,N−1}, and if so returns N. Middleware layers use the hint to back
// per-object state with flat arrays instead of maps.
func (l *List) DenseUniverse() (int, bool) {
	if l.denseRank != nil {
		return len(l.entries), true
	}
	return 0, false
}

// Grade returns the grade of obj. This is one unit of random access.
func (l *List) Grade(obj int) (float64, error) {
	g, ok := l.Lookup(obj)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownObject, obj)
	}
	return g, nil
}

// Lookup is Grade in comma-ok form, for callers to whom an ungraded
// object is an ordinary answer (it grades 0) rather than an error worth
// formatting.
func (l *List) Lookup(obj int) (float64, bool) {
	if l.denseRank != nil {
		if uint(obj) >= uint(len(l.denseRank)) {
			return 0, false
		}
		return l.entries[l.denseRank[obj]].Grade, true
	}
	i, ok := l.rank[obj]
	if !ok {
		return 0, false
	}
	return l.entries[i].Grade, true
}

// Grades is batched random access: out[i] is the grade of objs[i], 0 for
// an object the list does not grade. Over the dense index it is one loop
// of independent loads, so the cache misses of different objects overlap
// instead of each probe waiting out the one before it.
func (l *List) Grades(objs []int, out []float64) {
	out = out[:len(objs)]
	for i, obj := range objs {
		out[i], _ = l.Lookup(obj)
	}
}

// Rank returns the sorted position of obj, or -1 if absent.
func (l *List) Rank(obj int) int {
	if l.denseRank != nil {
		if obj < 0 || obj >= len(l.denseRank) {
			return -1
		}
		return int(l.denseRank[obj])
	}
	if i, ok := l.rank[obj]; ok {
		return i
	}
	return -1
}

// Contains reports whether obj appears in the list.
func (l *List) Contains(obj int) bool { return l.Rank(obj) >= 0 }

// Prefix returns the first n entries (the top n objects). n is clamped to
// the list length. The returned slice shares storage and must not be
// mutated.
func (l *List) Prefix(n int) []Entry {
	if n > len(l.entries) {
		n = len(l.entries)
	}
	if n < 0 {
		n = 0
	}
	return l.entries[:n]
}

// Entries returns all entries in sorted order. The returned slice shares
// storage and must not be mutated.
func (l *List) Entries() []Entry { return l.entries }

// Range returns the entries at sorted positions [lo, hi). The returned
// slice shares storage and must not be mutated.
func (l *List) Range(lo, hi int) []Entry { return l.entries[lo:hi] }

// GradedSet converts the list back to an unordered graded set.
func (l *List) GradedSet() *GradedSet {
	s := NewWithCapacity(len(l.entries))
	for _, e := range l.entries {
		s.grades[e.Object] = e.Grade
	}
	return s
}

// Reversed returns a new List with the reverse ordering and complemented
// grades (1 − g): the sorted list a subsystem would return for the negated
// query ¬Q under the standard negation rule. The returned tie order is the
// exact reverse of l's, matching Section 7's reversed-permutation skeleton.
func (l *List) Reversed() *List {
	n := len(l.entries)
	entries := make([]Entry, n)
	for i := n - 1; i >= 0; i-- {
		e := l.entries[i]
		entries[n-1-i] = Entry{Object: e.Object, Grade: 1 - e.Grade}
	}
	denseRank, rank, _ := buildIndex(entries) // duplicates impossible: same objects as l
	return &List{entries: entries, rank: rank, denseRank: denseRank}
}

// Updated returns a new List equal to l except that obj's grade is g:
// the copy-on-write form of a single grade update. The receiver is left
// untouched — snapshots handed out before the update (sources in flight,
// streaming cursors) keep reading the old data — and the new list is in
// canonical order (descending grade, ascending object on ties), exactly
// as NewList would have built it from the updated entries. The object
// must already be graded: the universe of a list is fixed; an update
// changes a grade, never the object set.
func (l *List) Updated(obj int, g float64) (*List, error) {
	if err := CheckGrade(g); err != nil {
		return nil, fmt.Errorf("object %d: %w", obj, err)
	}
	old := l.Rank(obj)
	if old < 0 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, obj)
	}
	es := make([]Entry, len(l.entries))
	copy(es, l.entries)
	// Remove the old entry, find where the regraded one belongs among the
	// rest, and slide the gap there.
	copy(es[old:], es[old+1:])
	rest := es[:len(es)-1]
	pos := sort.Search(len(rest), func(i int) bool {
		return g > rest[i].Grade || (g == rest[i].Grade && obj < rest[i].Object)
	})
	copy(es[pos+1:], es[pos:len(es)-1])
	es[pos] = Entry{Object: obj, Grade: g}
	denseRank, rank, _ := buildIndex(es) // duplicates impossible: same objects as l
	return &List{entries: es, rank: rank, denseRank: denseRank}, nil
}

// Validate re-checks all invariants; it is used by tests and by loaders of
// externally supplied data.
func (l *List) Validate() error {
	if l.denseRank != nil {
		if len(l.denseRank) != len(l.entries) {
			return errors.New("gradedset: rank index size mismatch")
		}
	} else if len(l.rank) != len(l.entries) {
		return errors.New("gradedset: rank index size mismatch")
	}
	for i, e := range l.entries {
		if err := CheckGrade(e.Grade); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if i > 0 && e.Grade > l.entries[i-1].Grade {
			return fmt.Errorf("gradedset: entries not sorted at position %d", i)
		}
		if l.Rank(e.Object) != i {
			return fmt.Errorf("gradedset: rank index wrong for object %d", e.Object)
		}
	}
	return nil
}
