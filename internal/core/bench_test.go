package core

import (
	"context"
	"fmt"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// Package-level micro-benchmarks: wall-clock of each algorithm on the
// standard independent workload. The repository root's bench_test.go
// holds the per-experiment benchmarks; these isolate per-algorithm
// overhead for profiling.

func benchAlgorithm(b *testing.B, alg Algorithm, n, m, k int) {
	b.Helper()
	dbs := make([]*scoredb.Database, 4)
	for i := range dbs {
		dbs[i] = scoredb.Generator{N: n, M: m, Law: scoredb.Uniform{}, Seed: uint64(100 + i)}.MustGenerate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dbs[i%len(dbs)]
		srcs := make([]subsys.Source, db.M())
		for j := range srcs {
			srcs[j] = subsys.FromList(db.List(j))
		}
		if _, _, err := Evaluate(context.Background(), alg, srcs, agg.Min, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithms(b *testing.B) {
	algs := []Algorithm{A0{}, A0Prime{}, TA{}, Ullman{}, NaiveSorted{}}
	for _, alg := range algs {
		for _, n := range []int{1024, 16384} {
			if alg.Name() == "ullman" {
				b.Run(fmt.Sprintf("%s/N=%d", alg.Name(), n), func(b *testing.B) {
					benchAlgorithm(b, alg, n, 2, 10)
				})
				continue
			}
			b.Run(fmt.Sprintf("%s/N=%d", alg.Name(), n), func(b *testing.B) {
				benchAlgorithm(b, alg, n, 3, 10)
			})
		}
	}
}

func BenchmarkMedianSubsetDecomposition(b *testing.B) {
	dbs := make([]*scoredb.Database, 4)
	for i := range dbs {
		dbs[i] = scoredb.Generator{N: 16384, M: 3, Seed: uint64(200 + i)}.MustGenerate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dbs[i%len(dbs)]
		srcs := make([]subsys.Source, db.M())
		for j := range srcs {
			srcs[j] = subsys.FromList(db.List(j))
		}
		if _, _, err := Evaluate(context.Background(), OrderStat{}, srcs, agg.Median, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter(b *testing.B) {
	db := scoredb.Generator{N: 16384, M: 2, Seed: 300}.MustGenerate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcs := []subsys.Source{subsys.FromList(db.List(0)), subsys.FromList(db.List(1))}
		lists := subsys.CountAll(srcs)
		if _, err := Filter(Background(), lists, agg.Min, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
