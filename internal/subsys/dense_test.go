package subsys

import (
	"math/rand"
	"slices"
	"testing"

	"fuzzydb/internal/gradedset"
)

func denseList(t *testing.T, grades []float64) *gradedset.List {
	t.Helper()
	entries := make([]gradedset.Entry, len(grades))
	for i, g := range grades {
		entries[i] = gradedset.Entry{Object: i, Grade: g}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// opaqueSource forwards a Source's plain face only, so Counted reads it
// through Entries and Grade rather than its bare-ListSource fast path.
type opaqueSource struct{ src Source }

func (h opaqueSource) Len() int                             { return h.src.Len() }
func (h opaqueSource) Entry(rank int) gradedset.Entry       { return h.src.Entry(rank) }
func (h opaqueSource) Entries(lo, hi int) []gradedset.Entry { return h.src.Entries(lo, hi) }
func (h opaqueSource) Grade(obj int) float64                { return h.src.Grade(obj) }

// TestCountedListPathMatchesPlainFace walks identical access sequences
// through a Counted over a bare ListSource (the list fast path) and one
// over the same list's plain face: every observable — entries, grades,
// Known, costs — must agree.
func TestCountedListPathMatchesPlainFace(t *testing.T) {
	l := denseList(t, []float64{0.9, 0.2, 0.8, 0.5, 0.7, 0.1, 0.6, 0.3})
	list := Count(FromList(l))
	plain := Count(opaqueSource{src: FromList(l)})

	for rank := 0; rank < 5; rank++ {
		ed, okd := list.EntryAt(rank)
		em, okm := plain.EntryAt(rank)
		if okd != okm || ed != em {
			t.Fatalf("rank %d: list (%v,%v) vs plain (%v,%v)", rank, ed, okd, em, okm)
		}
	}
	for _, obj := range []int{1, 1, 7, 0, 5} {
		if gd, gm := list.Grade(obj), plain.Grade(obj); gd != gm {
			t.Errorf("Grade(%d): list %v vs plain %v", obj, gd, gm)
		}
	}
	for obj := 0; obj < 8; obj++ {
		gd, okd := list.Known(obj)
		gm, okm := plain.Known(obj)
		if gd != gm || okd != okm {
			t.Errorf("Known(%d): list (%v,%v) vs plain (%v,%v)", obj, gd, okd, gm, okm)
		}
	}
	if list.Cost() != plain.Cost() {
		t.Errorf("cost: list %v vs plain %v", list.Cost(), plain.Cost())
	}
	// Re-reads of a paid-for prefix stay free on both.
	before := list.Cost()
	list.EntryAt(2)
	plain.EntryAt(2)
	if list.Cost() != before || plain.Cost() != before {
		t.Error("re-reading a delivered rank was charged")
	}
}

// TestEntryAtSingleSourceCall pins the satellite fix: delivering rank r
// costs exactly one Entry/Entries call per rank, even on re-read, through
// the plain face too.
func TestEntryAtSingleSourceCall(t *testing.T) {
	l := denseList(t, []float64{0.9, 0.8, 0.7, 0.6})
	calls := 0
	src := countingSource{list: l, calls: &calls}
	c := Count(opaqueSource{src: src})
	c.EntryAt(2) // delivers ranks 0,1,2
	if calls != 3 {
		t.Fatalf("delivering 3 ranks cost %d source reads", calls)
	}
	c.EntryAt(2) // cached
	c.EntryAt(0) // cached
	if calls != 3 {
		t.Errorf("re-reads hit the source: %d reads", calls)
	}
}

// countingSource counts per-rank reads regardless of access shape.
type countingSource struct {
	list  *gradedset.List
	calls *int
}

func (s countingSource) Len() int { return s.list.Len() }
func (s countingSource) Entry(rank int) gradedset.Entry {
	*s.calls++
	return s.list.Entry(rank)
}
func (s countingSource) Entries(lo, hi int) []gradedset.Entry {
	*s.calls += hi - lo
	return s.list.Range(lo, hi)
}
func (s countingSource) Grade(obj int) float64 {
	g, err := s.list.Grade(obj)
	if err != nil {
		return 0
	}
	return g
}

func TestCursorNextBatch(t *testing.T) {
	l := denseList(t, []float64{0.9, 0.8, 0.7, 0.6, 0.5})
	c := Count(FromList(l))
	cu := NewCursor(c)
	if g := cu.LastGrade(); g != 1 {
		t.Errorf("LastGrade before reads = %v, want 1", g)
	}
	span := cu.NextBatch(3)
	if len(span) != 3 || span[0].Object != 0 || span[2].Grade != 0.7 {
		t.Fatalf("NextBatch(3) = %v", span)
	}
	if cu.Pos() != 3 || cu.LastGrade() != 0.7 {
		t.Errorf("after batch: pos=%d last=%v", cu.Pos(), cu.LastGrade())
	}
	if c.Cost().Sorted != 3 {
		t.Errorf("batch of 3 cost %v", c.Cost())
	}
	// Overshooting clamps to the end; the tail batch is exact.
	span = cu.NextBatch(10)
	if len(span) != 2 || !cu.Exhausted() {
		t.Fatalf("tail NextBatch = %v, exhausted=%v", span, cu.Exhausted())
	}
	if cu.NextBatch(1) != nil {
		t.Error("NextBatch past the end returned entries")
	}
	if c.Cost().Sorted != 5 {
		t.Errorf("total sorted cost %v, want 5", c.Cost())
	}
	// A second cursor re-reads the same prefix for free.
	cu2 := NewCursor(c)
	if s := cu2.NextBatch(5); len(s) != 5 {
		t.Fatalf("second cursor batch = %v", s)
	}
	if c.Cost().Sorted != 5 {
		t.Errorf("overlapping prefix was re-charged: %v", c.Cost())
	}
	if cu2.LastGrade() != 0.5 {
		t.Errorf("second cursor LastGrade = %v", cu2.LastGrade())
	}
}

// TestCursorLastGradeCached: LastGrade must agree with the entry stream
// without touching the source.
func TestCursorLastGradeCached(t *testing.T) {
	l := denseList(t, []float64{0.9, 0.8, 0.3})
	calls := 0
	c := Count(opaqueSource{src: countingSource{list: l, calls: &calls}})
	cu := NewCursor(c)
	for {
		e, ok := cu.Next()
		if !ok {
			break
		}
		before := calls
		if g := cu.LastGrade(); g != e.Grade {
			t.Errorf("LastGrade = %v after consuming grade %v", g, e.Grade)
		}
		if calls != before {
			t.Error("LastGrade touched the source")
		}
	}
}

// TestCountedReleaseRecycles: a released grade memo is reusable and a
// fresh Counted starts clean.
func TestCountedReleaseRecycles(t *testing.T) {
	l := denseList(t, []float64{0.9, 0.8, 0.7})
	for i := 0; i < 100; i++ {
		c := Count(FromList(l))
		if _, ok := c.Known(0); ok {
			t.Fatal("fresh counted already knows a grade")
		}
		c.Grade(1)
		c.EntryAt(0)
		if got := c.Cost(); got.Sorted != 1 || got.Random != 1 {
			t.Fatalf("iteration %d: cost %v", i, got)
		}
		c.Release()
	}
}

// TestListReadaheadIsInvisible walks a bare list, which reads ahead in
// spans, and the same list's plain face, which reads exactly what is
// delivered, through the same cursor calls — with and without a stated
// depth, over a flat list and over one whose overlay holds moved
// entries. After every Next the tally, the consumed prefix and the memo
// must agree; only the buffer may run ahead of the high-water mark.
func TestListReadaheadIsInvisible(t *testing.T) {
	const n = 500
	flat := randomList(t, n, 7)
	overlaid := flat
	rng := rand.New(rand.NewSource(8))
	for range 15 { // under the ⌈√N⌉ = 23 fold: every write stays in the overlay
		g := rng.Float64()
		if rng.Intn(3) == 0 {
			g = float64(rng.Intn(2)) // to the top or the bottom
		}
		var err error
		if overlaid, err = overlaid.Updated(rng.Intn(n), g); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		l      *gradedset.List
		expect int
	}{
		{"flat", flat, 0}, {"flat/expect", flat, 40},
		{"overlay", overlaid, 0}, {"overlay/expect", overlaid, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare, plain := Count(FromList(tc.l)), Count(opaqueSource{src: FromList(tc.l)})
			defer bare.Release()
			defer plain.Release()
			bare.Expect(tc.expect)
			plain.Expect(tc.expect)
			bc, pc := NewCursor(bare), NewCursor(plain)
			for step := 0; ; step++ {
				if step == 60 {
					// A second cursor re-reads the delivered prefix and
					// then leads: the slow path on both.
					bc, pc = NewCursor(bare), NewCursor(plain)
				}
				be, bok := bc.Next()
				pe, pok := pc.Next()
				if be != pe || bok != pok {
					t.Fatalf("step %d: bare (%v, %t), plain (%v, %t)", step, be, bok, pe, pok)
				}
				if bare.Cost() != plain.Cost() {
					t.Fatalf("step %d: cost %v, plain %v", step, bare.Cost(), plain.Cost())
				}
				if !slices.Equal(bc.Consumed(), pc.Consumed()) {
					t.Fatalf("step %d: consumed prefixes differ", step)
				}
				if bare.Buffered() < bare.Depth() {
					t.Fatalf("step %d: %d buffered below the high-water mark %d", step, bare.Buffered(), bare.Depth())
				}
				for obj := range n {
					bg, bk := bare.Known(obj)
					pg, pk := plain.Known(obj)
					if bg != pg || bk != pk {
						t.Fatalf("step %d: Known(%d) = (%v, %t), plain (%v, %t)", step, obj, bg, bk, pg, pk)
					}
				}
				if !bok {
					break
				}
			}
			if bare.Depth() != n {
				t.Fatalf("read to %d of %d", bare.Depth(), n)
			}
		})
	}
}
