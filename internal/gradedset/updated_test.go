package gradedset

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

func TestUpdatedCanonicalOrder(t *testing.T) {
	l, err := NewList([]Entry{
		{Object: 0, Grade: 0.9},
		{Object: 1, Grade: 0.7},
		{Object: 2, Grade: 0.7},
		{Object: 3, Grade: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		obj int
		g   float64
	}{
		{3, 0.95}, // climb to the top
		{0, 0.0},  // fall to the bottom
		{1, 0.7},  // no-op value, same rank region
		{2, 0.7},  // tie: ascending-object order must hold
		{3, 0.7},  // join the tie class
		{0, 0.7},  // join the tie class from above
	}
	for _, tc := range cases {
		nl, err := l.Updated(tc.obj, tc.g)
		if err != nil {
			t.Fatalf("Updated(%d, %g): %v", tc.obj, tc.g, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("Updated(%d, %g): invalid list: %v", tc.obj, tc.g, err)
		}
		if g, _ := nl.Grade(tc.obj); g != tc.g {
			t.Fatalf("Updated(%d, %g): grade = %g", tc.obj, tc.g, g)
		}
		// Rebuild from scratch: Updated must equal NewList on the updated
		// entries, entry for entry (canonical order is unique).
		want := make([]Entry, 0, l.Len())
		for _, e := range l.Entries() {
			if e.Object == tc.obj {
				e.Grade = tc.g
			}
			want = append(want, e)
		}
		ref, err := NewList(want)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Entries() {
			if nl.Entry(i) != ref.Entry(i) {
				t.Fatalf("Updated(%d, %g): entry %d = %v, want %v", tc.obj, tc.g, i, nl.Entry(i), ref.Entry(i))
			}
		}
	}
}

func TestUpdatedCopyOnWrite(t *testing.T) {
	l, err := NewList([]Entry{{Object: 0, Grade: 0.5}, {Object: 1, Grade: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := l.Updated(1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := l.Grade(1); g != 0.4 {
		t.Fatalf("receiver mutated: grade(1) = %g, want 0.4", g)
	}
	if nl.Entry(0) != (Entry{Object: 1, Grade: 0.9}) {
		t.Fatalf("updated list top = %v", nl.Entry(0))
	}
	if l.Entry(0) != (Entry{Object: 0, Grade: 0.5}) {
		t.Fatalf("receiver reordered: top = %v", l.Entry(0))
	}
}

func TestUpdatedErrors(t *testing.T) {
	l, err := NewList([]Entry{{Object: 0, Grade: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Updated(7, 0.5); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("unknown object: err = %v", err)
	}
	if _, err := l.Updated(0, 1.5); err == nil {
		t.Fatal("invalid grade accepted")
	}
}

func TestUpdatedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 64
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Object: i, Grade: rng.Float64()}
	}
	l, err := NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		obj := rng.Intn(n)
		g := float64(rng.Intn(5)) / 4 // heavy ties
		nl, err := l.Updated(obj, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, _ := nl.Grade(obj); got != g {
			t.Fatalf("step %d: grade = %g, want %g", step, got, g)
		}
		l = nl
	}
	if _, dense := l.DenseUniverse(); !dense {
		t.Fatal("dense universe lost through updates")
	}
}

// flatUpdated is the flat form of Updated, kept as the oracle of the
// overlay: copy every entry, remove the old one, binary-search the rest
// for the regraded entry's slot, slide the gap there and rebuild the
// rank index.
func flatUpdated(l *List, obj int, g float64) *List {
	old := l.Rank(obj)
	es := make([]Entry, len(l.entries))
	copy(es, l.entries)
	copy(es[old:], es[old+1:])
	rest := es[:len(es)-1]
	pos := sort.Search(len(rest), func(i int) bool {
		return g > rest[i].Grade || (g == rest[i].Grade && obj < rest[i].Object)
	})
	copy(es[pos+1:], es[pos:len(es)-1])
	es[pos] = Entry{Object: obj, Grade: g}
	denseRank, rank, _ := buildIndex(es)
	return &List{entries: es, rank: rank, denseRank: denseRank}
}

var sinkSpan []Entry

// sameList fails unless got reads exactly as want, a flat list, through
// every method of the read surface.
func sameList(t *testing.T, rng *rand.Rand, got, want *List, objs []int) {
	t.Helper()
	n := want.Len()
	if got.Len() != n {
		t.Fatalf("Len = %d, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got.Entry(i) != want.Entry(i) {
			t.Fatalf("Entry(%d) = %v, want %v", i, got.Entry(i), want.Entry(i))
		}
	}
	if !slices.Equal(got.Entries(), want.Entries()) {
		t.Fatal("Entries differ")
	}
	for i := 0; i < n; i++ {
		if r := got.Range(i, i+1); len(r) != 1 || r[0] != want.Entry(i) {
			t.Fatalf("Range(%d, %d) = %v, want %v", i, i+1, r, want.Entry(i))
		}
	}
	if n > 0 {
		// A one-entry span lies inside one run: never a copy.
		i := rng.Intn(n)
		if a := testing.AllocsPerRun(1, func() { sinkSpan = got.Range(i, i+1) }); a != 0 {
			t.Fatalf("Range(%d, %d) allocates", i, i+1)
		}
	}
	for range 16 {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		if !slices.Equal(got.Range(lo, hi), want.Range(lo, hi)) {
			t.Fatalf("Range(%d, %d) = %v, want %v", lo, hi, got.Range(lo, hi), want.Range(lo, hi))
		}
		head := []Entry{{Object: -1, Grade: 1}}
		if !slices.Equal(got.AppendRange(head, lo, hi), append(head, want.Range(lo, hi)...)) {
			t.Fatalf("AppendRange(head, %d, %d) = %v, want head and %v", lo, hi, got.AppendRange(head, lo, hi), want.Range(lo, hi))
		}
		p := rng.Intn(n+4) - 2
		if !slices.Equal(got.Prefix(p), want.Prefix(p)) {
			t.Fatalf("Prefix(%d) differs", p)
		}
	}
	// Every graded object, and some that are not.
	probe := append(slices.Clone(objs), -1, -7, n, n+1, 1<<40)
	for _, obj := range probe {
		wg, wok := want.Lookup(obj)
		if gg, gok := got.Lookup(obj); gg != wg || gok != wok {
			t.Fatalf("Lookup(%d) = (%v, %t), want (%v, %t)", obj, gg, gok, wg, wok)
		}
		wg, werr := want.Grade(obj)
		if gg, gerr := got.Grade(obj); gg != wg || (gerr == nil) != (werr == nil) {
			t.Fatalf("Grade(%d) = (%v, %v), want (%v, %v)", obj, gg, gerr, wg, werr)
		}
		if got.Rank(obj) != want.Rank(obj) || got.Contains(obj) != want.Contains(obj) {
			t.Fatalf("Rank(%d) = %d, want %d", obj, got.Rank(obj), want.Rank(obj))
		}
	}
	gout, wout := make([]float64, len(probe)), make([]float64, len(probe))
	got.Grades(probe, gout)
	want.Grades(probe, wout)
	if !slices.Equal(gout, wout) {
		t.Fatal("Grades differ")
	}
	gn, gd := got.DenseUniverse()
	wn, wd := want.DenseUniverse()
	if gn != wn || gd != wd {
		t.Fatalf("DenseUniverse = (%d, %t), want (%d, %t)", gn, gd, wn, wd)
	}
	if !maps.Equal(got.GradedSet().grades, want.GradedSet().grades) {
		t.Fatal("GradedSet differs")
	}
	if !slices.Equal(got.Reversed().Entries(), want.Reversed().Entries()) {
		t.Fatal("Reversed differs")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdatedMatchesFlat pins the overlay to the flat form it replaces:
// along random chains of writes that cross the fold threshold several
// times, every version reads exactly as the flat chain's, on dense and
// sparse ids, canonical lists and presorted lists whose ties keep their
// own order — and an early snapshot still reads as it did after all of
// the later writes.
func TestUpdatedMatchesFlat(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1000} {
		for _, sparse := range []bool{false, true} {
			for _, presorted := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/sparse=%t/presorted=%t", n, sparse, presorted)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)*4 + int64(len(name))))
					updatedChain(t, rng, n, sparse, presorted)
				})
			}
		}
	}
}

func updatedChain(t *testing.T, rng *rand.Rand, n int, sparse, presorted bool) {
	objs := rng.Perm(n)
	if sparse {
		for i := range objs {
			objs[i] = 5*objs[i] - 3
		}
	}
	// Few distinct grades, so ties are everywhere.
	grade := func() float64 { return float64(rng.Intn(9)) / 8 }
	es := make([]Entry, n)
	for i, obj := range objs {
		es[i] = Entry{Object: obj, Grade: grade()}
	}
	var l *List
	var err error
	if presorted {
		// Descending grade, ties in the random order objs gave them.
		sort.SliceStable(es, func(i, j int) bool { return es[i].Grade > es[j].Grade })
		l, err = NewListPresorted(es)
	} else {
		l, err = NewList(es)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := &List{entries: l.entries, rank: l.rank, denseRank: l.denseRank}
	sameList(t, rng, l, ref, objs)

	type snapshot struct{ got, want *List }
	var early []snapshot
	folds, overlaid := 0, 0
	writes := 10*foldAt(n) + 20
	last := objs[0]
	for step := 0; step < writes; step++ {
		obj := objs[rng.Intn(n)]
		cur, _ := ref.Lookup(obj)
		g := grade()
		switch rng.Intn(6) {
		case 0: // the object written last, again
			obj = last
		case 1: // a write of the grade it already has
			g = cur
		case 2: // a raise to the top
			g = 1
		case 3: // a lower to the bottom
			g = 0
		}
		next, err := l.Updated(obj, g)
		if err != nil {
			t.Fatal(err)
		}
		want := flatUpdated(ref, obj, g)
		sameList(t, rng, next, want, objs)
		if l.ov != nil && next.ov == nil {
			folds++
		}
		if next.ov != nil {
			overlaid++
		}
		if step%(writes/3+1) == 1 {
			early = append(early, snapshot{next, want})
		}
		l, ref, last = next, want, obj
	}
	// At n ≤ 2 the overlay holds every object (⌈√n⌉ = n) and never folds.
	if overlaid == 0 || (foldAt(n) < n && folds < 3) {
		t.Fatalf("%d writes folded %d times, %d versions overlaid: the chain missed the overlay", writes, folds, overlaid)
	}
	for _, s := range early {
		sameList(t, rng, s.got, s.want, objs)
	}
}

// TestUpdatedAllocationBound pins what a write costs: over 10·⌈√N⌉
// chained writes at N = 65 536 the mean bytes allocated per write stay
// within a sixteenth of one flat copy (16 bytes of entry and 4 of rank
// index per object).
func TestUpdatedAllocationBound(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(42))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Object: i, Grade: rng.Float64()}
	}
	l, err := NewList(es)
	if err != nil {
		t.Fatal(err)
	}
	writes := 10 * foldAt(n)
	objs, grades := make([]int, writes), make([]float64, writes)
	for i := range objs {
		objs[i], grades[i] = rng.Intn(n), rng.Float64()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range objs {
		if l, err = l.Updated(objs[i], grades[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perWrite := float64(after.TotalAlloc-before.TotalAlloc) / float64(writes)
	t.Logf("%.0f bytes allocated per write over %d writes", perWrite, writes)
	if limit := 20.0 * n / 16; perWrite > limit {
		t.Fatalf("%.0f bytes allocated per write, want ≤ %.0f", perWrite, limit)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkListUpdateChain chains grade writes on one list of N = 32 768
// objects, each write on the version the last one made: the cost of a
// mutable subsystem's UpdateGrade without the lock and the journal.
func BenchmarkListUpdateChain(b *testing.B) {
	const n = 32768
	rng := rand.New(rand.NewSource(40))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Object: i, Grade: rng.Float64()}
	}
	l, err := NewList(es)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l, err = l.Updated(rng.Intn(n), rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
}
