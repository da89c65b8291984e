package subsys

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"fuzzydb/internal/gradedset"
)

// hotListOf builds an n-object list whose grade mass concentrates in
// the first `hot` ids — the skew shape sketches exist to resolve.
func hotListOf(t *testing.T, n, hot int) *gradedset.List {
	t.Helper()
	entries := make([]gradedset.Entry, n)
	for i := 0; i < n; i++ {
		g := 0.001 * float64(n-i) / float64(n)
		if i < hot {
			g = 0.9 - 0.4*float64(i)/float64(hot)
		}
		entries[i] = gradedset.Entry{Object: i, Grade: g}
	}
	return listOf(t, entries)
}

// TestSketchListEquiDepth pins the structural invariants of an exact
// sketch: cut boundaries ascending from 0 to N with one more cut than
// bucket, total mass equal to the list's, and buckets holding
// near-equal mass — so the hot region, where mass concentrates, is cut
// into far narrower id spans than the cold tail.
func TestSketchListEquiDepth(t *testing.T) {
	const n, hot = 4096, 256
	l := hotListOf(t, n, hot)
	s := SketchList(l)
	if s.N != n {
		t.Fatalf("N = %d, want %d", s.N, n)
	}
	if len(s.Cuts) != len(s.Mass)+1 {
		t.Fatalf("%d cuts for %d buckets", len(s.Cuts), len(s.Mass))
	}
	if s.Buckets() > DefaultSketchBuckets {
		t.Errorf("%d buckets, cap is %d", s.Buckets(), DefaultSketchBuckets)
	}
	if s.Cuts[0] != 0 || s.Cuts[len(s.Cuts)-1] != n {
		t.Errorf("cut span [%d, %d], want [0, %d]", s.Cuts[0], s.Cuts[len(s.Cuts)-1], n)
	}
	for i := 1; i < len(s.Cuts); i++ {
		if s.Cuts[i] <= s.Cuts[i-1] {
			t.Errorf("cuts not strictly ascending at %d: %v <= %v", i, s.Cuts[i], s.Cuts[i-1])
		}
	}
	var exact float64
	for id := 0; id < n; id++ {
		g, err := l.Grade(id)
		if err != nil {
			t.Fatal(err)
		}
		exact += g
	}
	if got := s.Total(); got < exact-1e-9 || got > exact+1e-9 {
		t.Errorf("Total = %v, exact mass %v", got, exact)
	}
	// Equi-depth: no bucket may hold more than its fair share plus one
	// grade (the single entry that tips the accumulator over).
	share := exact / float64(s.Buckets())
	for i, m := range s.Mass {
		if m > share+0.9+1e-9 {
			t.Errorf("bucket %d mass %v far above share %v", i, m, share)
		}
	}
	// Skew resolution: the hot prefix must be cut much finer than the
	// cold tail — its buckets average well under the even-split width.
	hotBuckets := 0
	for i := 0; i+1 < len(s.Cuts); i++ {
		if s.Cuts[i+1] <= hot {
			hotBuckets++
		}
	}
	if hotBuckets < s.Buckets()/2 {
		t.Errorf("only %d of %d buckets inside the hot prefix [0,%d)", hotBuckets, s.Buckets(), hot)
	}
}

// TestSketchMassBetween pins the interpolating range query: exact on
// bucket boundaries, additive over adjacent ranges, total over the full
// axis, zero on empty or inverted ranges, and clamped outside [0, N).
func TestSketchMassBetween(t *testing.T) {
	const n = 1000
	l := hotListOf(t, n, 100)
	s := SketchList(l)
	total := s.Total()
	if got := s.MassBetween(0, n); got < total-1e-9 || got > total+1e-9 {
		t.Errorf("MassBetween(0, n) = %v, Total = %v", got, total)
	}
	if got := s.MassBetween(-50, n+50); got < total-1e-9 || got > total+1e-9 {
		t.Errorf("clamped full range = %v, Total = %v", got, total)
	}
	if got := s.MassBetween(700, 700); got != 0 {
		t.Errorf("empty range mass %v", got)
	}
	if got := s.MassBetween(800, 300); got != 0 {
		t.Errorf("inverted range mass %v", got)
	}
	// Exact on a bucket boundary: mass of [0, Cuts[j]) is the sum of the
	// first j buckets.
	j := len(s.Mass) / 2
	var want float64
	for i := 0; i < j; i++ {
		want += s.Mass[i]
	}
	if got := s.MassBetween(0, s.Cuts[j]); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("prefix to cut %d = %v, bucket sum %v", j, got, want)
	}
	// Additivity at an arbitrary split point.
	for _, mid := range []int{1, 137, 500, 999} {
		a, b := s.MassBetween(0, mid), s.MassBetween(mid, n)
		if sum := a + b; sum < total-1e-9 || sum > total+1e-9 {
			t.Errorf("split at %d: %v + %v != %v", mid, a, b, total)
		}
	}
	// The planners' boundary grid skips a nil sketch.
	if cuts := MergedCuts(n, []*Sketch{nil}); !reflect.DeepEqual(cuts, []int{0, n}) {
		t.Errorf("MergedCuts over a nil sketch = %v", cuts)
	}
}

// TestSketchZeroMass: an all-zero list still partitions the axis (the
// planner needs boundaries even when there is nothing to weigh), with
// equal-width buckets and zero mass everywhere.
func TestSketchZeroMass(t *testing.T) {
	entries := make([]gradedset.Entry, 128)
	for i := range entries {
		entries[i] = gradedset.Entry{Object: i, Grade: 0}
	}
	s := SketchList(listOf(t, entries))
	if s.Total() != 0 {
		t.Errorf("Total = %v, want 0", s.Total())
	}
	if s.Cuts[0] != 0 || s.Cuts[len(s.Cuts)-1] != 128 {
		t.Errorf("cut span [%d, %d]", s.Cuts[0], s.Cuts[len(s.Cuts)-1])
	}
	for i := 1; i < len(s.Cuts); i++ {
		if s.Cuts[i] <= s.Cuts[i-1] {
			t.Errorf("cuts not ascending at %d: %v", i, s.Cuts)
		}
	}
	if got := s.MassBetween(0, 128); got != 0 {
		t.Errorf("mass %v over a zero list", got)
	}
}

// TestStaticGradeSketchCaching: a Static subsystem builds each target's
// sketch once, serves the cached pointer on every later request, and
// drops it when Set replaces the list. Unknown targets yield nil.
func TestStaticGradeSketchCaching(t *testing.T) {
	s := NewStatic("color", 512)
	s.Set("red", hotListOf(t, 512, 32))
	first := s.GradeSketch("red")
	if first == nil {
		t.Fatal("nil sketch for a registered target")
	}
	if s.GradeSketch("red") != first {
		t.Error("second request rebuilt the sketch instead of serving the cache")
	}
	if s.GradeSketch("blue") != nil {
		t.Error("sketch for an unknown target")
	}
	s.Set("red", hotListOf(t, 512, 256))
	second := s.GradeSketch("red")
	if second == first {
		t.Error("Set did not invalidate the cached sketch")
	}
	if second.MassBetween(0, 256) <= first.MassBetween(0, 256) {
		t.Error("fresh sketch does not reflect the replaced list")
	}
}

// TestWrapperSketchForwarding: the transport wrappers (latency, fault
// injection, resilience) move no grade mass, so each must forward the
// wrapped subsystem's exact cached sketch — a weighted shard plan, and
// with it the Section 5 tallies, must be identical with and without the
// wrapper in the stack.
func TestWrapperSketchForwarding(t *testing.T) {
	s := NewStatic("color", 512)
	s.Set("red", hotListOf(t, 512, 32))
	want := s.GradeSketch("red")
	if want == nil {
		t.Fatal("nil sketch from the base subsystem")
	}
	wrapped := map[string]GradeSketcher{
		"latency":   WithLatency(s, 0, 0),
		"faults":    WithFaults(s, FaultPlan{}),
		"resilient": WithResilience(s, Policy{}),
	}
	for name, gs := range wrapped {
		if got := gs.GradeSketch("red"); got != want {
			t.Errorf("%s wrapper did not forward the cached sketch", name)
		}
		if got := gs.GradeSketch("blue"); got != nil {
			t.Errorf("%s wrapper invented a sketch for an unknown target", name)
		}
	}
}

// TestMutableGradeSketchInvalidation: a Mutable subsystem's cached
// sketch survives reads and no-op updates; UpdateGrade replaces it with
// a new sketch over the same cuts that carries the moved mass, leaving
// the one a planner already holds as it was (copy on write); and Set,
// which replaces the list wholesale, drops it for a fresh build.
func TestMutableGradeSketchInvalidation(t *testing.T) {
	m := NewMutable("color", 256, 0)
	m.Set("red", hotListOf(t, 256, 16))
	first := m.GradeSketch("red")
	if first == nil {
		t.Fatal("nil sketch for a registered target")
	}
	if m.GradeSketch("red") != first {
		t.Error("read rebuilt the cached sketch")
	}
	// A no-op update moves no mass and must keep the cache (and epoch).
	g, err := m.Query("red")
	if err != nil {
		t.Fatal(err)
	}
	before := m.Epoch()
	if err := m.UpdateGrade("red", 0, g.Grade(0)); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != before {
		t.Error("no-op update bumped the epoch")
	}
	if m.GradeSketch("red") != first {
		t.Error("no-op update dropped the cached sketch")
	}
	// A real update serves a new sketch that sees the move; the held one
	// reads as it did.
	held := Sketch{N: first.N, Cuts: slices.Clone(first.Cuts), Mass: slices.Clone(first.Mass)}
	if err := m.UpdateGrade("red", 200, 0.95); err != nil {
		t.Fatal(err)
	}
	second := m.GradeSketch("red")
	if second == first {
		t.Fatal("UpdateGrade kept serving the sketch it had")
	}
	if !reflect.DeepEqual(*first, held) {
		t.Error("UpdateGrade wrote into a sketch a reader holds")
	}
	if !slices.Equal(second.Cuts, first.Cuts) {
		t.Errorf("UpdateGrade moved the cuts: %v, were %v", second.Cuts, first.Cuts)
	}
	if second.MassBetween(190, 210) <= first.MassBetween(190, 210) {
		t.Error("the new sketch does not reflect the moved grade mass")
	}
	// Set replaces wholesale: the next sketch is built from the new list.
	replaced := hotListOf(t, 256, 128)
	m.Set("red", replaced)
	if got := m.GradeSketch("red"); got == second || !reflect.DeepEqual(got, SketchList(replaced)) {
		t.Error("Set did not drop the cached sketch")
	}
}

// TestMutableSketchMassTracksWrites: over a chain of raises, lowers and
// repeated writes to the same objects — past several overlay folds — the
// cached sketch's per-bucket mass stays the exact grade sum of the
// current list over that bucket's ids.
func TestMutableSketchMassTracksWrites(t *testing.T) {
	const n = 1024
	m := NewMutable("color", n, 0)
	m.Set("red", hotListOf(t, n, 64))
	m.GradeSketch("red") // cached from here on
	rng := rand.New(rand.NewPCG(7, 11))
	for step := 0; step < 400; step++ {
		obj := rng.IntN(n)
		if step%3 == 2 {
			obj = 5 // the same object, raised and lowered again and again
		}
		if err := m.UpdateGrade("red", obj, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		src, err := m.Query("red")
		if err != nil {
			t.Fatal(err)
		}
		sk := m.GradeSketch("red")
		for b := range sk.Mass {
			var exact float64
			for id := sk.Cuts[b]; id < sk.Cuts[b+1]; id++ {
				exact += src.Grade(id)
			}
			if d := sk.Mass[b] - exact; d < -1e-9 || d > 1e-9 {
				t.Fatalf("step %d (object %d): bucket %d [%d,%d) carries %v, the list %v", step, obj, b, sk.Cuts[b], sk.Cuts[b+1], sk.Mass[b], exact)
			}
		}
	}
}
