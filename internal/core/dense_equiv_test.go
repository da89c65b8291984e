package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// opaqueSource forwards a Source's plain face only, so subsys.Counted
// reads it through Entries and Grade, one virtual call per probe, rather
// than through its bare-ListSource fast path (direct list reads, batched
// misses). Access behavior is untouched, so a list-path evaluation and a
// plain-face evaluation of the same database must agree bit for bit — in
// results and in Section 5 costs.
type opaqueSource struct{ src subsys.Source }

func (o opaqueSource) Len() int                             { return o.src.Len() }
func (o opaqueSource) Entry(rank int) gradedset.Entry       { return o.src.Entry(rank) }
func (o opaqueSource) Entries(lo, hi int) []gradedset.Entry { return o.src.Entries(lo, hi) }
func (o opaqueSource) Grade(obj int) float64                { return o.src.Grade(obj) }

func opaqueSourcesOf(db *scoredb.Database) []subsys.Source {
	srcs := sourcesOf(db)
	for i := range srcs {
		srcs[i] = opaqueSource{src: srcs[i]}
	}
	return srcs
}

// overlaidSourcesOf is db's lists served by Mutable subsystems after a
// few grade writes each (raises to the top, lowers to the bottom, moves
// to another object's grade, so a binary list stays binary): fewer than the ⌈√N⌉ that fold an overlay, so every list
// reads as a shared flat base plus moved entries, and a sorted span may
// cross an overlay boundary. plain is the same lists' plain faces.
func overlaidSourcesOf(t *testing.T, db *scoredb.Database, seed int64) (list, plain []subsys.Source) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := db.N()
	for i := range db.M() {
		mu := subsys.NewMutable(fmt.Sprintf("A%d", i), n, 0)
		mu.Set("*", db.List(i))
		for range int(math.Sqrt(float64(n)))/2 + 1 {
			g, _ := db.List(i).Grade(rng.Intn(n)) // a grade the list already has
			switch rng.Intn(3) {
			case 0:
				g = 1
			case 1:
				g = 0
			}
			if err := mu.UpdateGrade("*", rng.Intn(n), g); err != nil {
				t.Fatal(err)
			}
		}
		src, err := mu.Query("*")
		if err != nil {
			t.Fatal(err)
		}
		list, plain = append(list, src), append(plain, opaqueSource{src: src})
	}
	return list, plain
}

// sourceShape is one database's lists read two ways: as bare
// ListSources (Counted's list path) and through their plain faces.
type sourceShape struct {
	name        string
	list, plain []subsys.Source
}

// shapesOf is db's lists as they are and overlaid (overlaidSourcesOf).
func shapesOf(t *testing.T, db *scoredb.Database, seed int64) []sourceShape {
	t.Helper()
	oList, oPlain := overlaidSourcesOf(t, db, seed)
	return []sourceShape{{"flat", sourcesOf(db), opaqueSourcesOf(db)}, {"overlay", oList, oPlain}}
}

// validatedSourcesOf is db's lists behind the contract-checking wrapper,
// whose record of sorted access a pipelined evaluation reads and writes
// from several goroutines at once.
func validatedSourcesOf(db *scoredb.Database) []subsys.Source {
	srcs := sourcesOf(db)
	for i := range srcs {
		srcs[i] = subsys.Validated(srcs[i])
	}
	return srcs
}

// requireIdentical asserts two evaluations agree exactly: same objects,
// same grades (==, not within epsilon), same access tallies.
func requireIdentical(t *testing.T, label string, rList, rPlain []Result, cList, cPlain cost.Cost) {
	t.Helper()
	if cList != cPlain {
		t.Errorf("%s: list-path cost %v != plain-face cost %v", label, cList, cPlain)
	}
	if len(rList) != len(rPlain) {
		t.Fatalf("%s: list path returned %d results, plain face %d", label, len(rList), len(rPlain))
	}
	for i := range rList {
		if rList[i] != rPlain[i] {
			t.Errorf("%s: result %d differs: list path %v, plain face %v", label, i, rList[i], rPlain[i])
		}
	}
}

// TestDenseFastPathMatchesPlainFace is the fast-path invariant: Counted's
// direct reads of a bare in-memory list are a pure mechanical speedup.
// Across the algorithm family, grade laws, arities, and randomized k,
// over flat lists and over lists carrying an overlay of moved entries,
// they must return byte-identical results and identical cost.Cost
// tallies to the same lists read through their plain Source face.
func TestDenseFastPathMatchesPlainFace(t *testing.T) {
	laws := map[string]scoredb.GradeLaw{
		"Uniform":      scoredb.Uniform{},
		"Binary":       scoredb.Binary{P: 0.08},
		"BoundedAbove": scoredb.BoundedAbove{Max: 0.8},
	}
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0{}, agg.ArithmeticMean},
		{A0Prime{}, agg.Min},
		{TA{}, agg.Min},
		{TA{}, agg.AlgebraicProduct},
		{B0{}, agg.Max},
		{NaiveSorted{}, agg.Min},
		{OrderStat{}, agg.Median},
	}
	rng := rand.New(rand.NewSource(7))
	for lawName, law := range laws {
		for m := 2; m <= 5; m++ {
			n := 200 + rng.Intn(400)
			db := scoredb.Generator{N: n, M: m, Law: law, Seed: uint64(100*m) + 7}.MustGenerate()
			shapes := shapesOf(t, db, int64(n))
			for _, tc := range algs {
				k := 1 + rng.Intn(n)
				for _, sh := range shapes {
					label := fmt.Sprintf("%s/m=%d/%s/%s-%s/k=%d", lawName, m, sh.name, tc.alg.Name(), tc.f.Name(), k)
					rList, cList, err := Evaluate(context.Background(), tc.alg, sh.list, tc.f, k)
					if err != nil {
						t.Fatalf("%s: list path: %v", label, err)
					}
					rPlain, cPlain, err := Evaluate(context.Background(), tc.alg, sh.plain, tc.f, k)
					if err != nil {
						t.Fatalf("%s: plain face: %v", label, err)
					}
					requireIdentical(t, label, rList, rPlain, cList, cPlain)
				}
			}
		}
	}
}

// TestDenseFastPathUllman compares the list path with the plain face for
// the two-list-only member of the family, over flat and overlaid lists.
func TestDenseFastPathUllman(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, law := range []scoredb.GradeLaw{scoredb.Uniform{}, scoredb.BoundedAbove{Max: 0.9}} {
		db := scoredb.Generator{N: 500, M: 2, Law: law, Seed: 19}.MustGenerate()
		shapes := shapesOf(t, db, 19)
		for probe := 0; probe < 2; probe++ {
			k := 1 + rng.Intn(20)
			alg := Ullman{Probe: probe}
			for _, sh := range shapes {
				rList, cList, err := Evaluate(context.Background(), alg, sh.list, agg.Min, k)
				if err != nil {
					t.Fatal(err)
				}
				rPlain, cPlain, err := Evaluate(context.Background(), alg, sh.plain, agg.Min, k)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("ullman/%s/probe=%d/k=%d", sh.name, probe, k), rList, rPlain, cList, cPlain)
			}
		}
	}
}

// TestDenseFastPathFilterFirst drives the selective-conjunct plan over a
// binary list, through the list path and the plain face, over flat and
// overlaid lists.
func TestDenseFastPathFilterFirst(t *testing.T) {
	l0 := (scoredb.Generator{N: 600, M: 1, Law: scoredb.Binary{P: 0.01}, Seed: 23}).MustGenerate().List(0)
	l1 := (scoredb.Generator{N: 600, M: 1, Law: scoredb.Uniform{}, Seed: 24}).MustGenerate().List(0)
	db, err := scoredb.New([]*gradedset.List{l0, l1})
	if err != nil {
		t.Fatal(err)
	}
	shapes := shapesOf(t, db, 23)
	for _, k := range []int{1, 5, 40} {
		alg := FilterFirst{}
		for _, sh := range shapes {
			rList, cList, err := Evaluate(context.Background(), alg, sh.list, agg.Min, k)
			if err != nil {
				t.Fatal(err)
			}
			rPlain, cPlain, err := Evaluate(context.Background(), alg, sh.plain, agg.Min, k)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("filter-first/%s/k=%d", sh.name, k), rList, rPlain, cList, cPlain)
		}
	}
}

// TestDenseFastPathFilter compares the list path with the plain face for
// the threshold query evaluator.
func TestDenseFastPathFilter(t *testing.T) {
	db := scoredb.Generator{N: 400, M: 3, Law: scoredb.Uniform{}, Seed: 29}.MustGenerate()
	for _, theta := range []float64{0, 0.3, 0.8, 1} {
		lists := subsys.CountAll(sourcesOf(db))
		rList, err := Filter(Background(), lists, agg.Min, theta)
		if err != nil {
			t.Fatal(err)
		}
		cList := subsys.TotalCost(lists)
		opaque := subsys.CountAll(opaqueSourcesOf(db))
		rPlain, err := Filter(Background(), opaque, agg.Min, theta)
		if err != nil {
			t.Fatal(err)
		}
		cPlain := subsys.TotalCost(opaque)
		requireIdentical(t, fmt.Sprintf("filter/theta=%v", theta), rList, rPlain, cList, cPlain)
	}
}

// TestSerialVsConcurrentExecutors is the executor-equivalence invariant:
// the pipelined executor is a transport change only. Across the
// algorithm family, grade laws, arities, widths, and randomized k — on
// the list fast path, the plain face, and behind the stateful
// Validated wrapper — it must return byte-identical results and
// identical cost.Cost tallies to the serial evaluation. It runs at the
// width WithParallelism lowers to and under a fixed and a drawn
// readahead cap, both small, so the background
// pipelines churn through many refills even at these sizes. (The CI
// suite runs this under -race, which also exercises the pipeline and
// gather fan-outs — and the wrappers they read through — for data
// races.)
func TestSerialVsConcurrentExecutors(t *testing.T) {
	laws := map[string]scoredb.GradeLaw{
		"Uniform":      scoredb.Uniform{},
		"Binary":       scoredb.Binary{P: 0.08},
		"BoundedAbove": scoredb.BoundedAbove{Max: 0.8},
	}
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0{}, agg.ArithmeticMean},
		{A0Prime{}, agg.Min},
		{TA{}, agg.Min},
		{B0{}, agg.Max},
		{NaiveSorted{}, agg.Min},
		{OrderStat{}, agg.Median},
	}
	rng := rand.New(rand.NewSource(13))
	for lawName, law := range laws {
		for m := 2; m <= 5; m++ {
			n := 200 + rng.Intn(400)
			db := scoredb.Generator{N: n, M: m, Law: law, Seed: uint64(300*m) + 11}.MustGenerate()
			for _, tc := range algs {
				k := 1 + rng.Intn(n)
				// p sweeps below, at, and above one probe in flight per list.
				p := 1 + rng.Intn(m+2)
				execs := []*Pipelined{
					{P: p},                            // what WithParallelism(p) lowers to
					{P: 4, MaxDepth: 16},              // a shallow cap
					{P: p, MaxDepth: 1 + rng.Intn(8)}, // a drawn cap, below most stopping depths
				}
				label := fmt.Sprintf("%s/m=%d/%s-%s/k=%d/p=%d", lawName, m, tc.alg.Name(), tc.f.Name(), k, p)
				for _, mode := range []struct {
					name string
					srcs func(*scoredb.Database) []subsys.Source
				}{
					{"list", sourcesOf},
					{"plain", opaqueSourcesOf},
					{"validated", validatedSourcesOf},
				} {
					rSerial, cSerial, err := Evaluate(context.Background(), tc.alg, mode.srcs(db), tc.f, k)
					if err != nil {
						t.Fatalf("%s/%s: serial: %v", label, mode.name, err)
					}
					for _, x := range execs {
						rConc, cConc, err := Evaluate(context.Background(), tc.alg, mode.srcs(db), tc.f, k,
							withExec(x)...)
						if err != nil {
							t.Fatalf("%s/%s: %s: %v", label, mode.name, execName(x), err)
						}
						requireIdentical(t, label+"/"+mode.name+"/"+execName(x), rConc, rSerial, cConc, cSerial)
					}
				}
			}
		}
	}
}

// trueScorer computes ground-truth overall grades directly from a
// scoring database, outside the metered access path.
func trueScorer(db *scoredb.Database, f agg.Func) func(obj int) float64 {
	buf := make([]float64, db.M())
	return func(obj int) float64 {
		for i := 0; i < db.M(); i++ {
			g, err := db.List(i).Grade(obj)
			if err != nil {
				panic(err)
			}
			buf[i] = g
		}
		return f.Apply(buf)
	}
}

// requireShardEquiv asserts a sharded evaluation agrees with the
// unsharded one up to the paper's notion of top-k correctness with the
// package tie policy: the grade sequence is identical position by
// position, every entry strictly above the k-th grade is identical
// (object and grade — above the boundary the two evaluations must pick
// the very same objects in the very same order), and within the k-th
// grade's tie class — where Section 4 admits any maximal choice, and
// the two strategies legitimately see different candidate sets — every
// returned object is distinct and carries its exact ground-truth grade.
// For tie-free data (the continuous laws, almost surely) this reduces
// to full byte identity.
func requireShardEquiv(t *testing.T, label string, want, got []Result, truth func(int) float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: sharded returned %d results, unsharded %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	kth := want[len(want)-1].Grade
	seen := make(map[int]bool, len(got))
	for i := range want {
		if got[i].Grade != want[i].Grade {
			t.Errorf("%s: grade %d differs: sharded %v, unsharded %v", label, i, got[i], want[i])
			continue
		}
		if want[i].Grade > kth && got[i] != want[i] {
			t.Errorf("%s: result %d above the k-th grade differs: sharded %v, unsharded %v", label, i, got[i], want[i])
		}
		if seen[got[i].Object] {
			t.Errorf("%s: sharded result repeats object %d", label, got[i].Object)
		}
		seen[got[i].Object] = true
		if tg := truth(got[i].Object); got[i].Grade != tg {
			t.Errorf("%s: sharded result %d reports grade %v for object %d, true grade %v",
				label, i, got[i].Grade, got[i].Object, tg)
		}
	}
}

// TestShardedVsUnsharded is the shard-equivalence invariant: partitioned
// evaluation with the threshold-aware merge is a pure execution-strategy
// change. Across the algorithm family, grade laws, arities, shard
// counts, worker caps, and randomized k — on both the list fast path
// and the plain face — the merged global top-k must match the
// unsharded evaluation: identical grade sequence, identical objects and
// order everywhere above the k-th grade, and exact ground-truth grades
// with no duplicates inside the k-th grade's tie class (see
// requireShardEquiv; for the continuous laws this is full byte
// identity, asserted as such). The sharded result itself must be
// byte-identical across shard worker caps — fencing timing must never
// change answers. (Costs differ from unsharded by design: shards scan
// their own slices. The CI suite runs this under -race, which also
// exercises the shard fan-out and the scoreboard for data races.)
func TestShardedVsUnsharded(t *testing.T) {
	laws := map[string]scoredb.GradeLaw{
		"Uniform":      scoredb.Uniform{},
		"Binary":       scoredb.Binary{P: 0.08},
		"BoundedAbove": scoredb.BoundedAbove{Max: 0.8},
	}
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0{}, agg.ArithmeticMean},
		{A0Prime{}, agg.Min},
		{TA{}, agg.Min},
		{TA{}, agg.AlgebraicProduct},
		{B0{}, agg.Max},
		{NaiveSorted{}, agg.Min},
		{OrderStat{}, agg.Median},
	}
	rng := rand.New(rand.NewSource(17))
	for lawName, law := range laws {
		continuous := lawName != "Binary"
		for m := 2; m <= 5; m++ {
			n := 200 + rng.Intn(400)
			db := scoredb.Generator{N: n, M: m, Law: law, Seed: uint64(500*m) + 3}.MustGenerate()
			for _, tc := range algs {
				k := 1 + rng.Intn(n)
				shards := 2 + rng.Intn(7)
				truth := trueScorer(db, tc.f)
				for _, mode := range []struct {
					name string
					srcs func(*scoredb.Database) []subsys.Source
				}{
					{"list", sourcesOf},
					{"plain", opaqueSourcesOf},
				} {
					want, _, err := Evaluate(context.Background(), tc.alg, mode.srcs(db), tc.f, k)
					if err != nil {
						t.Fatalf("unsharded: %v", err)
					}
					var seq []Result // par=1 reference for cross-par determinism
					for _, par := range []int{1, 4} {
						label := fmt.Sprintf("%s/m=%d/%s-%s/k=%d/P=%d/par=%d/%s",
							lawName, m, tc.alg.Name(), tc.f.Name(), k, shards, par, mode.name)
						sr, err := EvaluateSharded(context.Background(), tc.alg, mode.srcs(db), tc.f, k,
							ShardConfig{Shards: shards, Parallel: par})
						if err != nil {
							t.Fatalf("%s: sharded: %v", label, err)
						}
						requireShardEquiv(t, label, want, sr.Results, truth)
						if continuous {
							// Tie-free data: full byte identity, including
							// tie order.
							if len(sr.Results) != len(want) {
								t.Fatalf("%s: sharded returned %d results, unsharded %d", label, len(sr.Results), len(want))
							}
							for i := range want {
								if sr.Results[i] != want[i] {
									t.Errorf("%s: result %d differs: sharded %v, unsharded %v", label, i, sr.Results[i], want[i])
								}
							}
						}
						if got := sr.Cost; got != sumCosts(sr.PerShard) {
							t.Errorf("%s: total cost %v != per-shard sum %v", label, got, sumCosts(sr.PerShard))
						}
						if sr.PerList != nil && sr.Cost != sumCosts(sr.PerList) {
							t.Errorf("%s: total cost %v != per-list sum %v", label, sr.Cost, sumCosts(sr.PerList))
						}
						if seq == nil {
							seq = sr.Results
							continue
						}
						if len(sr.Results) != len(seq) {
							t.Fatalf("%s: %d results at par=4, %d at par=1", label, len(sr.Results), len(seq))
						}
						for i := range seq {
							if sr.Results[i] != seq[i] {
								t.Errorf("%s: result %d depends on worker cap: %v (par=4) vs %v (par=1)",
									label, i, sr.Results[i], seq[i])
							}
						}
					}
				}
			}
		}
	}
}

// sumCosts folds a cost breakdown back into a total.
func sumCosts(cs []cost.Cost) cost.Cost {
	var total cost.Cost
	for _, c := range cs {
		total = total.Add(c)
	}
	return total
}

// TestScratchReuseIsDeterministic re-runs one query through the same
// pooled scratch repeatedly: epoch-stamped reuse must not leak state
// between evaluations.
func TestScratchReuseIsDeterministic(t *testing.T) {
	db := scoredb.Generator{N: 300, M: 3, Seed: 37}.MustGenerate()
	first, cFirst, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, c, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 12)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("rerun %d", i), res, first, c, cFirst)
	}
}

// TestPooledScratchUnderConcurrentQueries hammers the shared scratch and
// dense-cache pools from many goroutines (run with -race: the CI suite
// does). Every evaluation must still match the single-threaded answer.
func TestPooledScratchUnderConcurrentQueries(t *testing.T) {
	dbs := []*scoredb.Database{
		scoredb.Generator{N: 400, M: 2, Seed: 41}.MustGenerate(),
		scoredb.Generator{N: 300, M: 3, Seed: 42}.MustGenerate(),
		scoredb.Generator{N: 200, M: 4, Seed: 43}.MustGenerate(),
	}
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0Prime{}, agg.Min},
		{TA{}, agg.Min},
		{B0{}, agg.Max},
		{OrderStat{}, agg.Median},
	}
	type key struct{ db, alg int }
	want := make(map[key][]Result)
	wantCost := make(map[key]cost.Cost)
	for di, db := range dbs {
		for ai, tc := range algs {
			res, c, err := Evaluate(context.Background(), tc.alg, sourcesOf(db), tc.f, 9)
			if err != nil {
				t.Fatal(err)
			}
			want[key{di, ai}] = res
			wantCost[key{di, ai}] = c
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				di := (g + i) % len(dbs)
				ai := (g * 7) % len(algs)
				tc := algs[ai]
				res, c, err := Evaluate(context.Background(), tc.alg, sourcesOf(dbs[di]), tc.f, 9)
				if err != nil {
					errs <- err.Error()
					return
				}
				k := key{di, ai}
				if c != wantCost[k] || len(res) != len(want[k]) {
					errs <- fmt.Sprintf("goroutine %d: %s on db %d diverged", g, tc.alg.Name(), di)
					return
				}
				for j := range res {
					if res[j] != want[k][j] {
						errs <- fmt.Sprintf("goroutine %d: %s result %d diverged", g, tc.alg.Name(), j)
						return
					}
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
