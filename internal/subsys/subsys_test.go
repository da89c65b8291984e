package subsys

import (
	"errors"
	"math"
	"testing"

	"fuzzydb/internal/gradedset"
)

func listOf(t *testing.T, entries []gradedset.Entry) *gradedset.List {
	t.Helper()
	l, err := gradedset.NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestListSource(t *testing.T) {
	l := listOf(t, []gradedset.Entry{{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.4}})
	s := FromList(l)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if e := s.Entry(0); e.Object != 0 || e.Grade != 0.9 {
		t.Errorf("Entry(0) = %v", e)
	}
	if g := s.Grade(1); g != 0.4 {
		t.Errorf("Grade(1) = %v", g)
	}
	if g := s.Grade(99); g != 0 {
		t.Errorf("Grade(absent) = %v, want 0", g)
	}
}

func TestCountedSortedAccessIsSequentialAndMetered(t *testing.T) {
	l := listOf(t, []gradedset.Entry{{Object: 2, Grade: 0.9}, {Object: 0, Grade: 0.5}, {Object: 1, Grade: 0.1}})
	c := Count(FromList(l))
	cu := NewCursor(c)
	if cu.LastGrade() != 1 {
		t.Errorf("LastGrade before access = %v, want 1", cu.LastGrade())
	}
	e1, ok := cu.Next()
	if !ok || e1.Object != 2 {
		t.Fatalf("Next() = %v, %v", e1, ok)
	}
	e2, _ := cu.Next()
	if e2.Object != 0 {
		t.Fatalf("second Next() = %v", e2)
	}
	if c.Depth() != 2 || c.Cost().Sorted != 2 || c.Cost().Random != 0 {
		t.Errorf("after 2 sorted accesses: depth=%d cost=%v", c.Depth(), c.Cost())
	}
	if cu.LastGrade() != 0.5 {
		t.Errorf("LastGrade = %v, want 0.5", cu.LastGrade())
	}
	if cu.Exhausted() {
		t.Error("cursor claims exhausted with one entry left")
	}
	cu.Next()
	if _, ok := cu.Next(); ok {
		t.Error("Next past end reported ok")
	}
	if !cu.Exhausted() {
		t.Error("cursor should be exhausted")
	}
	if c.Cost().Sorted != 3 {
		t.Errorf("exhausted Next should not cost: %v", c.Cost())
	}
	if cu.Pos() != 3 {
		t.Errorf("Pos = %d, want 3", cu.Pos())
	}
}

func TestCursorsShareHighWaterMark(t *testing.T) {
	l := listOf(t, []gradedset.Entry{
		{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.7}, {Object: 2, Grade: 0.5}, {Object: 3, Grade: 0.3},
	})
	c := Count(FromList(l))
	first := NewCursor(c)
	first.Next()
	first.Next()
	first.Next()
	if c.Cost().Sorted != 3 {
		t.Fatalf("cost after 3 reads: %v", c.Cost())
	}
	// A second cursor re-reads the cached prefix for free, then pays for
	// rank 3 only.
	second := NewCursor(c)
	for i := 0; i < 4; i++ {
		if _, ok := second.Next(); !ok {
			t.Fatalf("second cursor ended early at %d", i)
		}
	}
	if c.Cost().Sorted != 4 {
		t.Errorf("cost after overlapping reads = %v, want S=4", c.Cost())
	}
}

func TestEntryAtOutOfRange(t *testing.T) {
	l := listOf(t, []gradedset.Entry{{Object: 0, Grade: 0.9}})
	c := Count(FromList(l))
	if _, ok := c.EntryAt(-1); ok {
		t.Error("EntryAt(-1) ok")
	}
	if _, ok := c.EntryAt(1); ok {
		t.Error("EntryAt(past end) ok")
	}
	if c.Cost().Sorted != 0 {
		t.Errorf("failed accesses were charged: %v", c.Cost())
	}
	// Jumping straight to a deep rank pays for the whole prefix.
	l2 := listOf(t, []gradedset.Entry{{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.5}, {Object: 2, Grade: 0.2}})
	c2 := Count(FromList(l2))
	if e, ok := c2.EntryAt(2); !ok || e.Object != 2 {
		t.Fatalf("EntryAt(2) = %v, %v", e, ok)
	}
	if c2.Cost().Sorted != 3 {
		t.Errorf("deep access cost = %v, want S=3", c2.Cost())
	}
	// All prefix objects became known.
	if _, ok := c2.Known(0); !ok {
		t.Error("prefix object not known after deep access")
	}
}

func TestCountedRandomAccessMemoization(t *testing.T) {
	l := listOf(t, []gradedset.Entry{{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.4}})
	c := Count(FromList(l))
	if g := c.Grade(1); g != 0.4 {
		t.Fatalf("Grade(1) = %v", g)
	}
	if c.Cost().Random != 1 {
		t.Fatalf("one random access: %v", c.Cost())
	}
	// Repeat is free.
	c.Grade(1)
	if c.Cost().Random != 1 {
		t.Errorf("repeated random access was charged: %v", c.Cost())
	}
	// Objects already delivered by sorted access are free too.
	NewCursor(c).Next()
	if c.Cost().Sorted != 1 {
		t.Fatalf("cost = %v", c.Cost())
	}
	c.Grade(0)
	if c.Cost().Random != 1 {
		t.Errorf("random access after sorted sighting was charged: %v", c.Cost())
	}
	if g, ok := c.Known(0); !ok || g != 0.9 {
		t.Errorf("Known(0) = %v, %v", g, ok)
	}
	if _, ok := c.Known(42); ok {
		t.Error("Known(42) should be false")
	}
	known := 0
	for obj := range c.Len() {
		if _, ok := c.Known(obj); ok {
			known++
		}
	}
	if known != 2 {
		t.Errorf("%d grades known, want 2", known)
	}
}

func TestTotalCost(t *testing.T) {
	l := listOf(t, []gradedset.Entry{{Object: 0, Grade: 0.9}, {Object: 1, Grade: 0.4}})
	cs := CountAll([]Source{FromList(l), FromList(l)})
	NewCursor(cs[0]).Next()
	cs[1].Grade(1)
	total := TotalCost(cs)
	if total.Sorted != 1 || total.Random != 1 || total.Sum() != 2 {
		t.Errorf("TotalCost = %v", total)
	}
}

func TestRelationalBinaryGrades(t *testing.T) {
	r := NewRelational("Artist", []string{"Beatles", "Stones", "Beatles", "Dylan"})
	if r.Attribute() != "Artist" || r.Size() != 4 {
		t.Fatalf("attr=%q size=%d", r.Attribute(), r.Size())
	}
	src, err := r.Query("Beatles")
	if err != nil {
		t.Fatal(err)
	}
	if g := src.Grade(0); g != 1 {
		t.Errorf("Grade(0) = %v, want 1", g)
	}
	if g := src.Grade(1); g != 0 {
		t.Errorf("Grade(1) = %v, want 0", g)
	}
	// Sorted access yields the two matches first (grade 1), then zeros.
	if e := src.Entry(0); e.Grade != 1 {
		t.Errorf("Entry(0) = %v", e)
	}
	if e := src.Entry(2); e.Grade != 0 {
		t.Errorf("Entry(2) = %v", e)
	}
	// Unknown artist: all grades 0, still a valid total source.
	none, err := r.Query("Elvis")
	if err != nil {
		t.Fatal(err)
	}
	if none.Len() != 4 || none.Entry(0).Grade != 0 {
		t.Error("query with no matches should grade all objects 0")
	}
}

func TestVectorSimilarity(t *testing.T) {
	if g := Similarity([]float64{1, 0}, []float64{1, 0}); g != 1 {
		t.Errorf("identical vectors grade %v, want 1", g)
	}
	g := Similarity([]float64{1, 0}, []float64{0, 1})
	want := 1 / (1 + math.Sqrt2)
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("orthogonal unit vectors grade %v, want %v", g, want)
	}
	// Length mismatch counts the excess as distance.
	if got := Similarity([]float64{1}, []float64{1, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mismatched lengths grade %v, want 0.5", got)
	}
	if Similarity(nil, nil) != 1 {
		t.Error("empty vectors should match perfectly")
	}
}

func TestVectorSubsystem(t *testing.T) {
	features := [][]float64{
		{1, 0, 0}, // pure red
		{0, 1, 0}, // pure green
		{0.9, 0.05, 0.05},
	}
	v := NewVector("AlbumColor", features, map[string][]float64{
		"red": {1, 0, 0},
	})
	src, err := v.Query("red")
	if err != nil {
		t.Fatal(err)
	}
	if src.Entry(0).Object != 0 {
		t.Errorf("best match = %d, want 0 (pure red)", src.Entry(0).Object)
	}
	if src.Entry(1).Object != 2 {
		t.Errorf("second match = %d, want 2", src.Entry(1).Object)
	}
	if src.Grade(0) != 1 {
		t.Errorf("perfect match grade = %v", src.Grade(0))
	}
	if _, err := v.Query("plaid"); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("unknown target error = %v", err)
	}
	v.AddTarget("green", []float64{0, 1, 0})
	if src2, err := v.Query("green"); err != nil || src2.Entry(0).Object != 1 {
		t.Error("AddTarget not honored")
	}
}

func TestTextSubsystem(t *testing.T) {
	docs := []string{
		"Abbey Road by the Beatles",
		"Sticky Fingers by the Rolling Stones",
		"Let It Be by the Beatles",
		"",
	}
	ts := NewText("Title", docs)
	if ts.Size() != 4 {
		t.Fatalf("Size = %d", ts.Size())
	}
	src, err := ts.Query("beatles road")
	if err != nil {
		t.Fatal(err)
	}
	// Doc 0 contains both tokens: must rank first with a higher grade than
	// doc 2 (one token).
	if src.Entry(0).Object != 0 {
		t.Errorf("best doc = %d, want 0", src.Entry(0).Object)
	}
	if !(src.Grade(0) > src.Grade(2)) {
		t.Errorf("grades: doc0=%v doc2=%v", src.Grade(0), src.Grade(2))
	}
	if src.Grade(3) != 0 {
		t.Errorf("empty doc grade = %v", src.Grade(3))
	}
	if g := src.Grade(0); g > 1 || g < 0 {
		t.Errorf("grade out of range: %v", g)
	}
	if _, err := ts.Query("   "); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("empty query error = %v", err)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Abbey Road, by The BEATLES (1969)!")
	want := []string{"abbey", "road", "by", "the", "beatles", "1969"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStaticSubsystem(t *testing.T) {
	s := NewStatic("Color", 3)
	l := listOf(t, []gradedset.Entry{{Object: 0, Grade: 0.5}, {Object: 1, Grade: 0.2}, {Object: 2, Grade: 0.9}})
	s.Set("red", l)
	if got := s.Targets(); len(got) != 1 || got[0] != "red" {
		t.Errorf("Targets = %v", got)
	}
	src, err := s.Query("red")
	if err != nil {
		t.Fatal(err)
	}
	if src.Entry(0).Object != 2 {
		t.Errorf("Entry(0) = %v", src.Entry(0))
	}
	if _, err := s.Query("blue"); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("unknown target error = %v", err)
	}
	if s.Attribute() != "Color" || s.Size() != 3 {
		t.Error("metadata wrong")
	}
}
