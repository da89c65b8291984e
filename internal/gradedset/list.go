package gradedset

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
//
// A list is flat — its entries and their rank index — or, when made by
// Updated, a flat base list shared with its parent plus a small overlay:
// the current entries of the objects moved since the base was built, and
// the base positions they vacated. Its own entries and index fields are
// then empty, so the flat fast paths of Range, Grade and Grades need no
// separate test for an overlay: they fall through to the overlaid path
// on the empty slices. A list built by NewList, NewListPresorted,
// FromGradedSet or Reversed is flat. Updated carries at most ⌈√N⌉ overlay
// entries, folding them into a fresh flat list when one more would not
// fit. Base and overlay are never written once a list is published, so
// every version is an immutable snapshot.
//
// Range is zero-copy when the span lies inside one run of base or of
// overlay entries, and copies only a span that crosses an overlay
// boundary: a span is valid until the next call on its source
// (subsys.Source.Entries), so a reader never needs chunk-aligned spans.
type List struct {
	// entries, rank and denseRank are empty over an overlay.
	entries   []Entry
	rank      map[int]int // object -> position; nil when the dense index is in use
	denseRank []int32     // object -> position over the dense universe; nil when sparse
	ov        *overlay    // the base and the objects moved off it; nil for a flat list
}

// overlay is what separates an updated list from the flat base it
// shares. The list reads as the base with the vacated positions removed
// and each overlay entry at its logical position; the base entries that
// stay keep their base order. The four slices hold at most ⌈√N⌉ values
// each, so every search over them is O(log √N).
type overlay struct {
	base  *List   // flat
	es    []Entry // the moved objects' current entries, in list order
	pos   []int32 // pos[k]: the logical position of es[k], increasing
	vac   []int32 // the base positions the moved objects vacated, increasing
	byObj []int32 // indexes into es, ordered by object
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
func (l *List) Len() int {
	if l.ov != nil {
		return len(l.ov.base.entries)
	}
	return len(l.entries)
}

// Entry returns the entry at sorted position i (0 is the best match).
// This is one unit of sorted access.
func (l *List) Entry(i int) Entry {
	if l.ov == nil {
		return l.entries[i]
	}
	return l.ov.entry(i)
}

// DenseUniverse reports whether the list's object set is exactly
// {0,…,N−1}, and if so returns N. Middleware layers use the hint to back
// per-object state with flat arrays instead of maps.
func (l *List) DenseUniverse() (int, bool) {
	if l.ov != nil {
		return l.ov.base.DenseUniverse()
	}
	if l.denseRank != nil {
		return len(l.entries), true
	}
	return 0, false
}

// Grade returns the grade of obj. This is one unit of random access.
func (l *List) Grade(obj int) (float64, error) {
	// Lookup's flat dense path, spelled out: Lookup itself is too big to
	// inline, and this is the probe every static list serves.
	if uint(obj) < uint(len(l.denseRank)) {
		return l.entries[l.denseRank[obj]].Grade, nil
	}
	g, ok := l.Lookup(obj)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownObject, obj)
	}
	return g, nil
}

// Lookup is Grade in comma-ok form, for callers to whom an ungraded
// object is an ordinary answer (it grades 0) rather than an error worth
// formatting. A moved object's grade is read off the overlay; every
// other object's grade is still the base's.
func (l *List) Lookup(obj int) (float64, bool) {
	if uint(obj) < uint(len(l.denseRank)) {
		return l.entries[l.denseRank[obj]].Grade, true
	}
	return l.lookupSlow(obj)
}

// lookupSlow is Lookup off the flat dense path: through the overlay
// first, then the flat index, dense or sparse.
func (l *List) lookupSlow(obj int) (float64, bool) {
	if o := l.ov; o != nil {
		if j := o.find(obj); j >= 0 {
			return o.es[j].Grade, true
		}
		l = o.base
	}
	if i := l.Rank(obj); i >= 0 {
		return l.entries[i].Grade, true
	}
	return 0, false
}

// Grades is batched random access: out[i] is the grade of objs[i], 0 for
// an object the list does not grade. Over the dense index it is one loop
// of independent loads, so the cache misses of different objects overlap
// instead of each probe waiting out the one before it.
func (l *List) Grades(objs []int, out []float64) {
	out = out[:len(objs)]
	if dr := l.denseRank; dr != nil {
		for i, obj := range objs {
			if uint(obj) < uint(len(dr)) {
				out[i] = l.entries[dr[obj]].Grade
			} else {
				out[i] = 0
			}
		}
		return
	}
	for i, obj := range objs {
		out[i], _ = l.Lookup(obj)
	}
}

// Rank returns the sorted position of obj, or -1 if absent.
func (l *List) Rank(obj int) int {
	if l.ov != nil {
		return l.ov.rank(obj)
	}
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
// the list length. The returned slice may share storage and must not be
// mutated.
func (l *List) Prefix(n int) []Entry {
	return l.Range(0, max(min(n, l.Len()), 0))
}

// Entries returns all entries in sorted order. The returned slice may
// share storage and must not be mutated; over an overlay it is a fresh
// flat copy.
func (l *List) Entries() []Entry { return l.Range(0, l.Len()) }

// Range returns the entries at sorted positions [lo, hi). The returned
// slice may share storage and must not be mutated. It is a subslice of
// the base or of the overlay when the span lies inside one run of
// either, and a fresh copy only when it crosses an overlay boundary.
func (l *List) Range(lo, hi int) []Entry {
	if uint(hi) <= uint(len(l.entries)) {
		return l.entries[lo:hi]
	}
	return l.rangeSlow(lo, hi)
}

// rangeSlow is Range over an overlay, and the bounds panic of a flat
// list.
func (l *List) rangeSlow(lo, hi int) []Entry {
	o := l.ov
	if o == nil {
		return l.entries[lo:hi]
	}
	if hi <= lo {
		return o.base.entries[lo:hi] // empty, or the flat form's bounds panic
	}
	n := hi - lo
	k, moved := o.at(lo)
	if moved {
		// Positions are increasing integers, so n overlay entries from k
		// are consecutive exactly when the last sits n−1 after the first.
		if e := k + n - 1; e < len(o.pos) && int(o.pos[e]) == hi-1 {
			return o.es[k : k+n]
		}
	} else if p, c := o.basePos(lo - k); o.run(k, p, c, lo) >= n {
		return o.base.entries[p : p+n]
	}
	out := make([]Entry, n)
	o.fill(out, lo)
	return out
}

// AppendRange appends the entries at sorted positions [lo, hi) to dst
// and returns the extended slice: Range copied into a buffer the caller
// keeps. A flat list appends in one copy; an overlaid one fills the grown
// dst run by run, so a span crossing an overlay boundary costs no
// intermediate slice.
func (l *List) AppendRange(dst []Entry, lo, hi int) []Entry {
	if uint(hi) <= uint(len(l.entries)) {
		return append(dst, l.entries[lo:hi]...)
	}
	return l.appendRangeSlow(dst, lo, hi)
}

// appendRangeSlow is AppendRange over an overlay, and the bounds panic of
// a flat list.
func (l *List) appendRangeSlow(dst []Entry, lo, hi int) []Entry {
	o := l.ov
	if o == nil || hi <= lo {
		return append(dst, l.Range(lo, hi)...)
	}
	_ = o.base.entries[lo:hi] // the flat form's bounds panic
	n := len(dst)
	dst = slices.Grow(dst, hi-lo)[:n+hi-lo]
	o.fill(dst[n:], lo)
	return dst
}

// GradedSet converts the list back to an unordered graded set.
func (l *List) GradedSet() *GradedSet {
	s := NewWithCapacity(l.Len())
	for _, e := range l.Entries() {
		s.grades[e.Object] = e.Grade
	}
	return s
}

// Reversed returns a new List with the reverse ordering and complemented
// grades (1 − g): the sorted list a subsystem would return for the negated
// query ¬Q under the standard negation rule. The returned tie order is the
// exact reverse of l's, matching Section 7's reversed-permutation skeleton.
func (l *List) Reversed() *List {
	src := l.Entries()
	n := len(src)
	entries := make([]Entry, n)
	for i := n - 1; i >= 0; i-- {
		e := src[i]
		entries[n-1-i] = Entry{Object: e.Object, Grade: 1 - e.Grade}
	}
	denseRank, rank, _ := buildIndex(entries) // duplicates impossible: same objects as l
	return &List{entries: entries, rank: rank, denseRank: denseRank}
}

// foldAt is the most overlay entries a list of n entries carries: ⌈√n⌉.
// A write then costs O(√n) for the overlay it rebuilds, plus the O(n)
// fold once every ⌈√n⌉ writes — O(√n) amortized either way.
func foldAt(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }

// Updated returns a new List equal to l except that obj's grade is g:
// a single grade update. The receiver is left untouched — snapshots
// handed out before the update (sources in flight, streaming cursors)
// keep reading the old data. The regraded entry is placed exactly where
// removing it and binary-searching the rest for the canonical slot
// (descending grade, ascending object on ties) puts it in the flat
// sequence, so on a canonical list the result is what NewList would have
// built from the updated entries, and a presorted list keeps its own tie
// order elsewhere. The object must already be graded: the universe of a
// list is fixed; an update changes a grade, never the object set.
//
// The new list shares l's base and carries the overlay plus this one
// entry; when that would exceed ⌈√N⌉ entries it is folded into a fresh
// flat list instead.
func (l *List) Updated(obj int, g float64) (*List, error) {
	if err := CheckGrade(g); err != nil {
		return nil, fmt.Errorf("object %d: %w", obj, err)
	}
	old := l.Rank(obj)
	if old < 0 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, obj)
	}
	n := l.Len()
	// The search runs over the list with the old entry removed: rest[i]
	// is entry i before old and entry i+1 from old on.
	at := sort.Search(n-1, func(i int) bool {
		if i >= old {
			i++
		}
		e := l.Entry(i)
		return g > e.Grade || (g == e.Grade && obj < e.Object)
	})
	moved := Entry{Object: obj, Grade: g}
	o := l.ov
	if o == nil {
		o = &overlay{base: l}
	}
	j := o.find(obj)
	size := len(o.es)
	if j < 0 {
		size++
	}
	if size > foldAt(n) {
		es := make([]Entry, n)
		if l.ov != nil {
			o.fill(es, 0)
		} else {
			copy(es, l.entries)
		}
		// Remove the old entry and slide the gap to where the regraded
		// one belongs.
		copy(es[old:], es[old+1:])
		copy(es[at+1:], es[at:n-1])
		es[at] = moved
		denseRank, rank, _ := buildIndex(es) // duplicates impossible: same objects as l
		return &List{entries: es, rank: rank, denseRank: denseRank}, nil
	}
	return &List{ov: o.with(j, moved, old, at)}, nil
}

// find returns the index in es of obj's entry, or -1 if obj has not
// moved. It is the probe every random access to an overlaid list pays.
func (o *overlay) find(obj int) int {
	lo, hi := 0, len(o.byObj)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if o.es[o.byObj[h]].Object < obj {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < len(o.byObj) && o.es[o.byObj[lo]].Object == obj {
		return int(o.byObj[lo])
	}
	return -1
}

// entry is Entry over an overlay.
func (o *overlay) entry(i int) Entry {
	k, moved := o.at(i)
	if moved {
		return o.es[k]
	}
	p, _ := o.basePos(i - k)
	return o.base.entries[p]
}

// at locates logical position i: k is the number of overlay entries
// before it, and moved reports that es[k] is the entry at i.
func (o *overlay) at(i int) (k int, moved bool) {
	return slices.BinarySearch(o.pos, int32(i))
}

// basePos maps the q-th surviving base entry (the base entries not
// vacated, in base order) to its base position p, and returns the number
// c of vacated positions before p: vac[t]−t, the number of survivors
// before vac[t], is non-decreasing, and c counts the t where it is ≤ q.
func (o *overlay) basePos(q int) (p, c int) {
	c = sort.Search(len(o.vac), func(t int) bool { return int(o.vac[t])-t > q })
	return q + c, c
}

// rank is Rank over an overlay: a moved object's position is stored; any
// other object's is its index q among the surviving base entries plus
// the overlay entries ahead of it — those k with pos[k]−k, the survivors
// before es[k], at most q.
func (o *overlay) rank(obj int) int {
	if j := o.find(obj); j >= 0 {
		return int(o.pos[j])
	}
	p := o.base.Rank(obj)
	if p < 0 {
		return -1
	}
	vacated, _ := slices.BinarySearch(o.vac, int32(p))
	q := p - vacated
	return q + sort.Search(len(o.pos), func(k int) bool { return int(o.pos[k])-k > q })
}

// run is the length of the base run at logical position i, whose entry
// sits at base position p with c vacated positions before it and the
// overlay entry k next: it ends at the next overlay entry, the next
// vacated position, or the end of the base.
func (o *overlay) run(k, p, c, i int) int {
	r := len(o.base.entries) - p
	if k < len(o.pos) {
		r = min(r, int(o.pos[k])-i)
	}
	if c < len(o.vac) {
		r = min(r, int(o.vac[c])-p)
	}
	return r
}

// fill copies the entries at logical positions [lo, lo+len(out)) into
// out, one run at a time.
func (o *overlay) fill(out []Entry, lo int) {
	k, _ := o.at(lo)
	p, c := o.basePos(lo - k)
	for i := 0; i < len(out); {
		if k < len(o.pos) && int(o.pos[k]) == lo+i {
			out[i] = o.es[k]
			k, i = k+1, i+1
			continue
		}
		r := min(o.run(k, p, c, lo+i), len(out)-i)
		copy(out[i:i+r], o.base.entries[p:p+r])
		i, p = i+r, p+r
		for c < len(o.vac) && int(o.vac[c]) == p {
			p, c = p+1, c+1
		}
	}
}

// with returns the overlay after one more write: the entry moved off
// logical position old to logical position at, where j is its index in
// es if it had moved before, else -1.
func (o *overlay) with(j int, moved Entry, old, at int) *overlay {
	m := len(o.es)
	if j < 0 {
		m++
	}
	idx := make([]int32, 3*m)
	n := &overlay{base: o.base, es: make([]Entry, 0, m), pos: idx[:0:m], vac: idx[m : m : 2*m], byObj: idx[2*m : 2*m : 3*m]}
	// Every other moved entry keeps its order; its position shifts down
	// past the slot the write emptied and up past the one it filled.
	for k, e := range o.es {
		if k == j {
			continue
		}
		y := int(o.pos[k])
		if y > old {
			y--
		}
		if y >= at {
			y++
		}
		n.es, n.pos = append(n.es, e), append(n.pos, int32(y))
	}
	jn, _ := slices.BinarySearch(n.pos, int32(at))
	n.es, n.pos = slices.Insert(n.es, jn, moved), slices.Insert(n.pos, jn, int32(at))

	// The same objects in the same order, their es indexes closed over
	// j's old slot and opened at jn.
	for _, k := range o.byObj {
		if int(k) == j {
			k = int32(jn)
		} else {
			if j >= 0 && int(k) > j {
				k--
			}
			if int(k) >= jn {
				k++
			}
		}
		n.byObj = append(n.byObj, k)
	}
	n.vac = append(n.vac, o.vac...)
	if j < 0 {
		t := sort.Search(len(n.byObj), func(t int) bool { return n.es[n.byObj[t]].Object > moved.Object })
		n.byObj = slices.Insert(n.byObj, t, int32(jn))
		vacated := int32(o.base.Rank(moved.Object))
		t, _ = slices.BinarySearch(n.vac, vacated)
		n.vac = slices.Insert(n.vac, t, vacated)
	}
	return n
}

// Validate re-checks all invariants; it is used by tests and by loaders of
// externally supplied data.
func (l *List) Validate() error {
	flat := l
	if o := l.ov; o != nil {
		flat = o.base
		if m := len(o.es); len(o.pos) != m || len(o.vac) != m || len(o.byObj) != m || m > foldAt(l.Len()) {
			return errors.New("gradedset: overlay size mismatch")
		}
	}
	if flat.denseRank != nil {
		if len(flat.denseRank) != len(flat.entries) {
			return errors.New("gradedset: rank index size mismatch")
		}
	} else if len(flat.rank) != len(flat.entries) {
		return errors.New("gradedset: rank index size mismatch")
	}
	es := l.Entries()
	for i, e := range es {
		if err := CheckGrade(e.Grade); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if i > 0 && e.Grade > es[i-1].Grade {
			return fmt.Errorf("gradedset: entries not sorted at position %d", i)
		}
		if l.Rank(e.Object) != i {
			return fmt.Errorf("gradedset: rank index wrong for object %d", e.Object)
		}
		if g, ok := l.Lookup(e.Object); !ok || g != e.Grade {
			return fmt.Errorf("gradedset: grade index wrong for object %d", e.Object)
		}
	}
	return nil
}
