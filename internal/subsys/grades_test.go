package subsys

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"fuzzydb/internal/gradedset"
)

// flaky is a fallible, non-batching source that can fail permanently at
// its k-th random access or at one sorted rank.
type flaky struct {
	ListSource
	failProbe int // 1-based TryGrade call that fails; 0 never
	failRank  int // first rank TryEntries cannot deliver; -1 never
	probes    int
}

func (f *flaky) TryEntry(rank int) (gradedset.Entry, error) {
	es, err := f.TryEntries(rank, rank+1)
	if err != nil {
		return gradedset.Entry{}, err
	}
	return es[0], nil
}

func (f *flaky) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	if f.failRank >= 0 && hi > f.failRank {
		return f.Entries(lo, max(lo, f.failRank)), errors.New("flaky: sorted access failed")
	}
	return f.Entries(lo, hi), nil
}

func (f *flaky) TryGrade(obj int) (float64, error) {
	f.probes++
	if f.probes == f.failProbe {
		return 0, errors.New("flaky: probe failed")
	}
	return f.Grade(obj), nil
}

// shortBatcher breaks the BatchGrader contract at one object: a batch
// holding it comes back short there, with no error.
type shortBatcher struct {
	*batchList
	shortAt int
}

func (s shortBatcher) TryGrades(objs []int, out []float64) (int, error) {
	for i, obj := range objs {
		if obj == s.shortAt {
			n, _ := s.batchList.TryGrades(objs[:i], out)
			return n, nil
		}
	}
	return s.batchList.TryGrades(objs, out)
}

// TestGradesMatchesGradeLoop pins the column routine to the loop it
// replaces: on twin Counted lists in the same state, Grades(objs, col)
// and `for i, obj := range objs { col[i] = c.Grade(obj) }` leave the
// same column, tallies, memo (Seen, in order) and sticky failure — for
// an object outside the universe 0…N−1, the same ErrOutsideUniverse at
// the same first such object.
func TestGradesMatchesGradeLoop(t *testing.T) {
	const n = 40
	dense := descendingList(t, n)
	var sparseEntries []gradedset.Entry
	for i := 0; i < n; i++ {
		sparseEntries = append(sparseEntries, gradedset.Entry{Object: 7 * i, Grade: float64(i%9) / 10})
	}
	sparse := listOf(t, sparseEntries)
	all := upTo(n)
	rand.New(rand.NewPCG(3, 3)).Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })

	// sorted delivers the top ranks, so their objects are known for free.
	sorted := func(ranks int) func(*Counted) {
		return func(c *Counted) { c.EntryAt(ranks - 1) }
	}
	cases := []struct {
		name string
		src  func() Source // a fresh, equal source per twin
		prep func(*Counted)
		objs []int
		// shortAt, when ≥ 0, is where the batched twin's source runs short
		// without an error; the loop twin's source fails there instead, so
		// only the failure's cause differs.
		shortAt int
		fails   bool // the case is about a source failure: there must be one
		outside bool // ... and that failure is ErrOutsideUniverse
	}{
		{name: "dense list", src: func() Source { return FromList(dense) }, objs: all, shortAt: -1},
		// A list that grades objects beyond 0…Len()−1: probing one of them
		// fails the list, and the misses after it read 0.
		{name: "sparse list", src: func() Source { return FromList(sparse) }, objs: []int{7, 8, 0, 273, 14, 1000}, shortAt: -1, fails: true, outside: true},
		{name: "outside the dense universe", src: func() Source { return FromList(dense) }, prep: sorted(4), objs: []int{3, 9, n, -1, 5, n + 9, 9, all[0]}, shortAt: -1, fails: true, outside: true},
		{name: "batches of 3, outside the universe", src: func() Source { return newBatchList(dense, 3) }, prep: sorted(5),
			objs: append(append(append([]int(nil), all[:20]...), -3, n), all[20:]...), shortAt: -1, fails: true, outside: true},
		{name: "duplicates", src: func() Source { return FromList(dense) }, objs: []int{9, 4, 9, 9, 30, 4}, shortAt: -1},
		{name: "known and unknown mixed", src: func() Source { return FromList(dense) }, prep: func(c *Counted) {
			sorted(10)(c)
			c.Grade(33)
		}, objs: all, shortAt: -1},
		{name: "wrapped list", src: func() Source { return NewLatencySource(FromList(dense), 0) }, prep: sorted(6), objs: all, shortAt: -1},
		{name: "sticky failure already set", src: func() Source {
			return &flaky{ListSource: FromList(dense), failRank: 5}
		}, prep: sorted(8), objs: all, shortAt: -1, fails: true},
		{name: "fallible source fails at the 7th miss", src: func() Source {
			return &flaky{ListSource: FromList(dense), failProbe: 7, failRank: -1}
		}, prep: sorted(6), objs: append(append([]int(nil), all...), all[:12]...), shortAt: -1, fails: true},
		{name: "batches of 3", src: func() Source { return newBatchList(dense, 3) }, prep: sorted(5), objs: all, shortAt: -1},
		{name: "batches of 3, short with an error", src: func() Source {
			b := newBatchList(dense, 3)
			b.failAt = all[18]
			return b
		}, prep: sorted(5), objs: all, shortAt: -1, fails: true},
		{name: "batches of 3, short without an error", src: func() Source {
			b := newBatchList(dense, 3)
			b.failAt = all[22]
			return b
		}, prep: sorted(5), objs: all, shortAt: all[22], fails: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loopSrc, colSrc := tc.src(), tc.src()
			if tc.shortAt >= 0 {
				b := colSrc.(*batchList)
				b.failAt = -1
				colSrc = shortBatcher{b, tc.shortAt}
			}
			loop, column := Count(loopSrc), Count(colSrc)
			defer loop.Release()
			defer column.Release()
			if tc.prep != nil {
				tc.prep(loop)
				tc.prep(column)
			}

			want := make([]float64, len(tc.objs))
			for i, obj := range tc.objs {
				want[i] = loop.Grade(obj)
			}
			got := make([]float64, len(tc.objs))
			for i := range got {
				got[i] = -1 // every slot must be written
			}
			column.Grades(tc.objs, got)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("column = %v\nwant     %v", got, want)
			}
			if column.Cost() != loop.Cost() {
				t.Errorf("cost = %v, want %v", column.Cost(), loop.Cost())
			}
			for obj := range loop.Len() {
				gg, gok := column.Known(obj)
				wg, wok := loop.Known(obj)
				if gg != wg || gok != wok {
					t.Errorf("Known(%d) = (%v, %t), want (%v, %t)", obj, gg, gok, wg, wok)
				}
			}
			switch gerr, werr := column.serr, loop.serr; {
			case (werr != nil) != tc.fails:
				t.Errorf("the Grade loop's failure = %v, want one: %t", werr, tc.fails)
			case tc.outside && (!errors.Is(werr, ErrOutsideUniverse) || !werr.Random):
				t.Errorf("the Grade loop's failure = %v, want a random-access ErrOutsideUniverse", werr)
			case tc.shortAt >= 0:
				if gerr == nil || werr == nil || gerr.Rank != werr.Rank || gerr.List != werr.List ||
					gerr.Random != werr.Random || !errors.Is(gerr, errShortGrades) {
					t.Errorf("err = %v, want errShortGrades pinned where the loop failed (%v)", gerr, werr)
				}
			case !reflect.DeepEqual(gerr, werr):
				t.Errorf("err = %v, want %v", gerr, werr)
			}

			// Batched reads stay within the source's cap and never re-read
			// what the memo held when the call began.
			if b, ok := loopSrc.(*batchList); ok {
				colB := colSrc
				if s, ok := colB.(shortBatcher); ok {
					colB = s.batchList
				}
				if len(b.seen()) != 0 {
					t.Errorf("the Grade loop used the batched face: %v", b.seen())
				}
				for _, batch := range colB.(*batchList).seen() {
					if len(batch) > 3 {
						t.Errorf("a batch of %d exceeds MaxGrades 3", len(batch))
					}
					for _, obj := range batch {
						if dense.Rank(obj) < 5 {
							t.Errorf("object %d was known from sorted access, yet read again", obj)
						}
					}
				}
			}
			// A wrapper sees every access: the in-memory fast path is for
			// the bare ListSource only.
			if lat, ok := colSrc.(*LatencySource); ok {
				if wantCalls := loopSrc.(*LatencySource).Calls(); lat.Calls() != wantCalls {
					t.Errorf("wrapper saw %d calls, the Grade loop's wrapper %d", lat.Calls(), wantCalls)
				}
			}
		})
	}
}

// TestPooledPrefixUnderConcurrentQueries hammers the pooled sorted
// prefix (run with -race: CI does): goroutines share the lists but each
// evaluation draws its own Counted, reads to a different depth — shallow
// after deep, so a recycled buffer arrives longer than the new reader
// needs — and must see exactly the list's own ranks and grades, both by
// sorted access and through the column routine.
func TestPooledPrefixUnderConcurrentQueries(t *testing.T) {
	const n = 512
	lists := []*gradedset.List{randomList(t, n, 141), randomList(t, n, 142), randomList(t, n, 143)}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			objs, col := upTo(n), make([]float64, n)
			for i := 0; i < 60; i++ {
				l := lists[(g+i)%len(lists)]
				depth := 1 + (g*131+i*37)%n
				c := Count(FromList(l))
				cu := NewCursor(c)
				for cu.Pos() < depth {
					if i%2 == 0 {
						cu.Next()
					} else {
						cu.NextBatch(1 + (g+i)%9)
					}
				}
				c.Grades(objs, col)
				got := cu.Consumed()
				bad := len(got) != cu.Pos() || c.Cost().Sorted != cu.Pos() || c.Cost().Random != n-cu.Pos()
				for r := 0; r < len(got) && !bad; r++ {
					bad = got[r] != l.Entry(r)
				}
				for obj := 0; obj < n && !bad; obj++ {
					g, _ := l.Lookup(obj)
					bad = col[obj] != g
				}
				c.Release()
				if bad {
					errs <- fmt.Sprintf("goroutine %d, evaluation %d at depth %d diverged from its list (cost %v)", g, i, depth, c.Cost())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// columnBench is the list set of the column-routine benchmarks: as in
// gradedset's, 24 lists over N = 32768 so the working set exceeds L2,
// probed at 2048 random distinct-enough objects.
func columnBench(b *testing.B) (srcs []Source, objs []int) {
	b.Helper()
	const n, m, probes = 32768, 24, 2048
	rng := rand.New(rand.NewPCG(14, 3))
	for j := 0; j < m; j++ {
		srcs = append(srcs, FromList(randomList(b, n, int64(j))))
	}
	objs = make([]int, probes)
	for i := range objs {
		objs[i] = rng.IntN(n)
	}
	return srcs, objs
}

// BenchmarkCountedGradesMiss: every probe misses the memo, so each op is
// one metered random-access phase over a fresh Counted (drawn from and
// returned to the pools, as an engine query does).
func BenchmarkCountedGradesMiss(b *testing.B) {
	srcs, objs := columnBench(b)
	col := make([]float64, len(objs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Count(srcs[i%len(srcs)])
		c.Grades(objs, col)
		c.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/probe")
}

// BenchmarkCountedGradeLoopMiss is the same phase through the per-probe
// loop: one virtual Grade per object.
func BenchmarkCountedGradeLoopMiss(b *testing.B) {
	srcs, objs := columnBench(b)
	col := make([]float64, len(objs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Count(srcs[i%len(srcs)])
		for t, obj := range objs {
			col[t] = c.Grade(obj)
		}
		c.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/probe")
}

// BenchmarkCountedGradesHit: every grade is already in the memo, so the
// column is filled without touching the source.
func BenchmarkCountedGradesHit(b *testing.B) {
	srcs, objs := columnBench(b)
	col := make([]float64, len(objs))
	c := Count(srcs[0])
	defer c.Release()
	c.Grades(objs, col)
	paid := c.Cost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Grades(objs, col)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(objs)), "ns/probe")
	if c.Cost() != paid {
		b.Fatalf("memo hits were charged: %v, then %v", paid, c.Cost())
	}
}
