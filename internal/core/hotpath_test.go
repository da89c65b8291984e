package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// a0PrimePrivatePrefix is A₀′ as it was written before the candidate scan
// became a view of the cursor's consumed ranks: it keeps its own copy of
// every list's prefix, and probes one object at a time. The reference the
// view is compared against.
func a0PrimePrivatePrefix(lists []*subsys.Counted, k int) []Result {
	m := len(lists)
	cursors := subsys.Cursors(lists)
	prefixes := make([][]gradedset.Entry, m)
	count := make(map[int]int)
	var matches []int
	for len(matches) < k {
		exhausted := true
		for i, cu := range cursors {
			e, ok := cu.Next()
			if !ok {
				continue
			}
			exhausted = false
			prefixes[i] = append(prefixes[i], e)
			if count[e.Object]++; count[e.Object] == m {
				matches = append(matches, e.Object)
			}
		}
		if exhausted {
			break
		}
	}
	g0, i0 := 2.0, 0
	for _, obj := range matches {
		for j, l := range lists {
			if g, _ := l.Known(obj); g < g0 {
				g0, i0 = g, j
			}
		}
	}
	var entries []gradedset.Entry
	buf := make([]float64, m)
	for _, e := range prefixes[i0] {
		if e.Grade >= g0 {
			gradesInto(buf, lists, e.Object)
			entries = append(entries, gradedset.Entry{Object: e.Object, Grade: agg.Min.Apply(buf)})
		}
	}
	return topKResults(entries, k)
}

// TestA0PrimePrefixIsTheCursorsNotTheLists runs A₀′ over lists of which
// one — each in turn, so the i₀ list is among them — was already read by
// an earlier cursor far deeper than A₀′ will read: the candidates must
// come from the ranks A₀′'s own cursor consumed, not from everything the
// list has delivered. Candidates (the grades the memo learned),
// tallies and answers must equal the private-copy reference's.
func TestA0PrimePrefixIsTheCursorsNotTheLists(t *testing.T) {
	// Few grade levels: over continuous grades nothing past the cursor
	// can reach g₀, so only ties tell the cursor's ranks from the list's.
	for _, shape := range []struct{ n, m, k, deep, levels int }{
		{400, 3, 8, 300, 6}, {256, 2, 5, 256, 4}, {500, 4, 3, 450, 12}, {300, 3, 4, 200, 0},
	} {
		var law scoredb.GradeLaw = scoredb.Uniform{}
		if shape.levels > 0 {
			law = scoredb.Discrete{Levels: shape.levels}
		}
		db := scoredb.Generator{N: shape.n, M: shape.m, Law: law, Seed: uint64(shape.n)}.MustGenerate()
		fresh, _, err := Evaluate(context.Background(), A0Prime{}, sourcesOf(db), agg.Min, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		for deepList := 0; deepList < shape.m; deepList++ {
			preRead := func() []*subsys.Counted {
				lists := subsys.CountAll(sourcesOf(db))
				subsys.NewCursor(lists[deepList]).NextBatch(shape.deep)
				return lists
			}
			ref, got := preRead(), preRead()
			want := a0PrimePrivatePrefix(ref, shape.k)
			res, err := A0Prime{}.TopK(NewExecContext(context.Background(), got), got, agg.Min, shape.k)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("N=%d m=%d k=%d, list %d pre-read", shape.n, shape.m, shape.k, deepList)
			if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(res, fresh) {
				t.Errorf("%s: answers %v, the reference's %v, a fresh evaluation's %v", label, res, want, fresh)
			}
			if got[deepList].Depth() != shape.deep {
				t.Errorf("%s: A0' read to rank %d, past the pre-read's %d: the case is vacuous", label, got[deepList].Depth(), shape.deep)
			}
			for j := range got {
				if got[j].Cost() != ref[j].Cost() {
					t.Errorf("%s: list %d cost %v, want %v", label, j, got[j].Cost(), ref[j].Cost())
				}
				// Same candidates probed: the memos hold the same grades.
				for obj := range ref[j].Len() {
					gg, gok := got[j].Known(obj)
					wg, wok := ref[j].Known(obj)
					if gg != wg || gok != wok {
						t.Errorf("%s: list %d Known(%d) = (%v, %t), want (%v, %t)", label, j, obj, gg, gok, wg, wok)
						break
					}
				}
			}
			subsys.ReleaseAll(ref)
			subsys.ReleaseAll(got)
		}
	}
}

// TestPooledPrefixUnderConcurrentQueries is the pooled-state test for the
// sorted prefix (run with -race: CI does): queries of different depths —
// k from 1 to N/4, so a recycled prefix buffer is now longer, now shorter
// than its next user needs — run at once over shared lists, and every
// answer must be the naive top k with the single-threaded tallies.
func TestPooledPrefixUnderConcurrentQueries(t *testing.T) {
	db := scoredb.Generator{N: 600, M: 3, Seed: 14}.MustGenerate()
	srcs := sourcesOf(db)
	ks := []int{1, 150, 4, 60, 2, 25, 100, 9}
	algs := []Algorithm{A0Prime{}, A0{}}
	type key struct{ alg, k int }
	oracle := make(map[int][]gradedset.Entry)
	wantCost := make(map[key]cost.Cost)
	for _, k := range ks {
		res, _ := run(t, NaiveSorted{}, db, agg.Min, k)
		oracle[k] = entriesOf(res)
		for ai, alg := range algs {
			res, c := run(t, alg, db, agg.Min, k)
			if !gradedset.SameGradeMultiset(entriesOf(res), oracle[k], 0) {
				t.Fatalf("%s k=%d: %v, want the grades of %v", alg.Name(), k, res, oracle[k])
			}
			wantCost[key{ai, k}] = c
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ai, k := (g+i)%len(algs), ks[(g*3+i)%len(ks)]
				var opts []EvalOption
				if i%3 == 2 {
					opts = append(opts, WithExecutor(Pipelined{P: 2}))
				}
				res, c, err := Evaluate(context.Background(), algs[ai], srcs, agg.Min, k, opts...)
				if err != nil || c != wantCost[key{ai, k}] || !gradedset.SameGradeMultiset(entriesOf(res), oracle[k], 0) {
					errs <- fmt.Sprintf("goroutine %d: %s k=%d diverged: %d results, cost %v (want %v), err %v",
						g, algs[ai].Name(), k, len(res), c, wantCost[key{ai, k}], err)
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
