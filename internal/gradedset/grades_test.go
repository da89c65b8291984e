package gradedset

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// TestGradesMatchesGrade pins the batched lookup to the single one on
// both indexes: out[i] is Grade's answer, and 0 exactly where Grade
// reports ErrUnknownObject (negative ids and ids past the universe
// included).
func TestGradesMatchesGrade(t *testing.T) {
	dense := mustList(t, []Entry{{0, 0.3}, {1, 0.9}, {2, 0.5}, {3, 0.7}})
	sparse := mustList(t, []Entry{{10, 0.3}, {700, 0.9}, {42, 0}, {3, 0.7}})
	for name, l := range map[string]*List{"dense": dense, "sparse": sparse} {
		objs := []int{3, -1, 700, 0, 3, 42, 4, 10, 1 << 40}
		out := make([]float64, len(objs))
		l.Grades(objs, out)
		for i, obj := range objs {
			want, err := l.Grade(obj)
			if err != nil && (!errors.Is(err, ErrUnknownObject) || want != 0) {
				t.Fatalf("%s: Grade(%d) = (%v, %v)", name, obj, want, err)
			}
			if _, ok := l.Lookup(obj); ok != (err == nil) {
				t.Errorf("%s: Lookup(%d) ok = %t, Grade err = %v", name, obj, ok, err)
			}
			if out[i] != want {
				t.Errorf("%s: Grades[%d] (object %d) = %v, want %v", name, i, obj, out[i], want)
			}
		}
	}
}

// randomAccessSet is the working set of the random-access benchmarks:
// 24 lists over N = 32768, about 19 MB of entries and rank indexes —
// larger than L2, so a probe is what it is in a real query, two
// dependent cache misses.
func randomAccessSet(b *testing.B) (lists []*List, objs []int) {
	b.Helper()
	const n, m, probes = 32768, 24, 2048
	rng := rand.New(rand.NewPCG(14, 1))
	for j := 0; j < m; j++ {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Object: i, Grade: rng.Float64()}
		}
		l, err := NewList(es)
		if err != nil {
			b.Fatal(err)
		}
		lists = append(lists, l)
	}
	objs = make([]int, probes)
	for i := range objs {
		objs[i] = rng.IntN(n)
	}
	return lists, objs
}

var sinkGrade float64

// BenchmarkListGradeLoop is the per-probe baseline of BenchmarkListGrades:
// one Grade call per object, rotating over the lists.
func BenchmarkListGradeLoop(b *testing.B) {
	lists, objs := randomAccessSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lists[i%len(lists)]
		for _, obj := range objs {
			g, _ := l.Grade(obj)
			sinkGrade += g
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/probe")
}

// BenchmarkListGrades reads the same probes through the batched lookup.
func BenchmarkListGrades(b *testing.B) {
	lists, objs := randomAccessSet(b)
	out := make([]float64, len(objs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lists[i%len(lists)].Grades(objs, out)
	}
	sinkGrade += out[0]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/probe")
}
