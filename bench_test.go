package fuzzydb_test

// One benchmark per experiment in the EXPERIMENTS.md index (E1–E14).
// Each benchmark measures the wall-clock of the algorithm under its
// experiment's workload and reports the paper's quantity of interest —
// the middleware access cost — via b.ReportMetric, so `go test -bench=.`
// regenerates both the performance and the cost shape of every claim.
//
// Workload generation is excluded from timing: databases are drawn once
// per size outside the timed loop.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzydb"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// runCost executes one evaluation on fresh counters and returns the
// unweighted middleware cost.
func runCost(b *testing.B, alg core.Algorithm, db *scoredb.Database, f agg.Func, k int, opts ...core.EvalOption) float64 {
	b.Helper()
	srcs := make([]subsys.Source, db.M())
	for i := range srcs {
		srcs[i] = subsys.FromList(db.List(i))
	}
	_, c, err := core.Evaluate(context.Background(), alg, srcs, f, k, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return float64(c.Sum())
}

// benchOver runs alg over the given databases round-robin. The reported
// middleware-cost/op is the exact mean over the db set, computed once
// outside the timed loop: costs are deterministic per database, so the
// metric is independent of b.N and bit-stable across runs and executors
// (cmd/benchjson -compare relies on this).
func benchOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int, opts ...core.EvalOption) {
	b.Helper()
	var mean float64
	for _, db := range dbs {
		mean += runCost(b, alg, db, f, k, opts...)
	}
	mean /= float64(len(dbs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCost(b, alg, dbs[i%len(dbs)], f, k, opts...)
	}
	b.StopTimer()
	b.ReportMetric(mean, "middleware-cost/op")
}

func genDBs(n, m, trials int, law scoredb.GradeLaw, seed uint64) []*scoredb.Database {
	dbs := make([]*scoredb.Database, trials)
	for i := range dbs {
		dbs[i] = scoredb.Generator{N: n, M: m, Law: law, Seed: seed + uint64(i)}.MustGenerate()
	}
	return dbs
}

// BenchmarkE1_A0_SqrtN — Thm 5.3, m=2: sublinear cost, fitted exponent 0.5.
func BenchmarkE1_A0_SqrtN(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchOver(b, core.A0{}, dbs, agg.Min, 10)
		})
	}
}

// BenchmarkE2_A0_GeneralM — Thm 5.3: exponent (m−1)/m across m.
func BenchmarkE2_A0_GeneralM(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchOver(b, core.A0{}, dbs, agg.Min, 10)
		})
	}
}

// BenchmarkE1_A0_SqrtN_Parallel — the E1 workload under the concurrent
// executor (one worker per list): identical cost metrics by
// construction, wall-clock tracked against the serial run.
func BenchmarkE1_A0_SqrtN_Parallel(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchOver(b, core.A0{}, dbs, agg.Min, 10, core.WithExecutor(core.Concurrent{P: 2}))
		})
	}
}

// BenchmarkE2_A0_GeneralM_Parallel — the E2 workload with m workers, one
// per list.
func BenchmarkE2_A0_GeneralM_Parallel(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchOver(b, core.A0{}, dbs, agg.Min, 10, core.WithExecutor(core.Concurrent{P: m}))
		})
	}
}

// benchFaultyOver runs alg with every list wrapped in the full
// fault-tolerance stack — a seeded FaultSource at 0% rate under a
// Resilient retry/breaker policy — so ns/op measures the pure overhead
// the stack adds on the healthy path. With no faults firing, every
// access succeeds first try and the Section 5 tallies are untouched:
// the reported middleware-cost/op is computed THROUGH the stack and
// must stay bit-identical to the base benchmark's baseline (cmd/benchjson
// strips the _Faulty suffix and compares against exactly that).
func benchFaultyOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int) {
	b.Helper()
	run := func(db *scoredb.Database) float64 {
		srcs := make([]subsys.Source, db.M())
		for i := range srcs {
			plan := subsys.FaultPlan{Seed: uint64(i) + 1, Rate: 0}
			srcs[i] = subsys.Resilient(
				subsys.NewFaultSource(subsys.FromList(db.List(i)), plan),
				subsys.Policy{MaxRetries: 2},
			)
		}
		_, c, err := core.Evaluate(context.Background(), alg, srcs, f, k)
		if err != nil {
			b.Fatal(err)
		}
		return float64(c.Sum())
	}
	var mean float64
	for _, db := range dbs {
		mean += run(db)
	}
	mean /= float64(len(dbs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(dbs[i%len(dbs)])
	}
	b.StopTimer()
	b.ReportMetric(mean, "middleware-cost/op")
}

// BenchmarkE1_A0_SqrtN_Faulty — the E1 workload through the resilience
// stack at 0% fault rate: cost metrics bit-identical to the base E1
// baseline, ns/op tracks what fault tolerance costs when nothing fails.
func BenchmarkE1_A0_SqrtN_Faulty(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchFaultyOver(b, core.A0{}, dbs, agg.Min, 10)
		})
	}
}

// BenchmarkE2_A0_GeneralM_Faulty — the E2 workload through the same
// healthy-path resilience stack.
func BenchmarkE2_A0_GeneralM_Faulty(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchFaultyOver(b, core.A0{}, dbs, agg.Min, 10)
		})
	}
}

// benchSourceLatency is the simulated per-call backend latency of the
// _Latency benchmark variants: every physical source call — one batched
// sorted span or one random probe — costs one millisecond, the IO-bound
// regime where the executor's shape dominates wall-clock.
const benchSourceLatency = time.Millisecond

// benchLatencyOver times alg under the given executor over
// latency-wrapped sources (1 ms per physical call, batch-amortized). The
// reported middleware-cost/op is computed over the undelayed sources —
// latency wrappers and executors never change the Section 5 tallies, so
// the metric stays pinned to the base benchmark's baseline — while
// ns/op records the latency-dominated wall-clock these variants exist
// to track. Ops here take 10^2–10^5 ms, so run them with -benchtime 1x
// (each op is deterministic in access count; only scheduling jitters).
func benchLatencyOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int, x core.Executor) {
	b.Helper()
	var mean float64
	for _, db := range dbs {
		mean += runCost(b, alg, db, f, k)
	}
	mean /= float64(len(dbs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dbs[i%len(dbs)]
		srcs := make([]subsys.Source, db.M())
		for j := range srcs {
			srcs[j] = subsys.NewLatencySource(subsys.FromList(db.List(j)), benchSourceLatency, 0)
		}
		if _, _, err := core.Evaluate(context.Background(), alg, srcs, f, k, core.WithExecutor(x)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(mean, "middleware-cost/op")
}

// BenchmarkE1_A0_SqrtN_Latency — the E1 workload over 1 ms/call remote
// sources under the pipelined executor: adaptive batched readahead per
// list plus a 128-wide random-access overlap. Cost metrics are pinned to
// the base E1 baseline; ns/op against the _LatencyConcurrent twin below
// is the latency-hiding win.
func BenchmarkE1_A0_SqrtN_Latency(b *testing.B) {
	for _, n := range []int{4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchLatencyOver(b, core.A0{}, dbs, agg.Min, 10, core.Pipelined{P: 128})
		})
	}
}

// BenchmarkE1_A0_SqrtN_LatencyConcurrent — the same 1 ms/call workload
// under the non-pipelined concurrent executor (one worker per list): the
// reference the pipeline is measured against.
func BenchmarkE1_A0_SqrtN_LatencyConcurrent(b *testing.B) {
	for _, n := range []int{4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchLatencyOver(b, core.A0{}, dbs, agg.Min, 10, core.Concurrent{P: 2})
		})
	}
}

// BenchmarkE2_A0_GeneralM_Latency — the E2/m=5 workload over 1 ms/call
// remote sources under the pipelined executor. The acceptance figure of
// this PR: ns/op here must be ≥5x below the _LatencyConcurrent twin —
// the random-access phase (~10^5 probes) overlaps 128 wide instead of
// m wide, an IO-bound speedup that shows even on one CPU.
func BenchmarkE2_A0_GeneralM_Latency(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchLatencyOver(b, core.A0{}, dbs, agg.Min, 10, core.Pipelined{P: 128})
		})
	}
}

// BenchmarkE2_A0_GeneralM_LatencyConcurrent — the E2/m=5 1 ms/call
// reference under Concurrent{P:m}. One op takes minutes of simulated
// waiting (~10^5 serial-ish probes): run with -benchtime 1x only.
func BenchmarkE2_A0_GeneralM_LatencyConcurrent(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchLatencyOver(b, core.A0{}, dbs, agg.Min, 10, core.Concurrent{P: m})
		})
	}
}

// benchShardedLatencyOver times a sharded evaluation over 1 ms/call
// remote sources, with or without per-shard prefetch pipelines. Like the
// other latency variants it reports the deterministic cost metrics from
// undelayed runs — middleware-cost/op is the unsharded-equivalent tally
// pinned to the base benchmark's baseline, sharded-cost/op the
// partitioned tally under sequential shards — while ns/op records the
// latency-dominated wall-clock. One op simulates minutes of waiting on
// the unpipelined path: run with -benchtime 1x.
func benchShardedLatencyOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k, shards int, prefetch bool) {
	b.Helper()
	var meanBase, meanSharded float64
	for _, db := range dbs {
		meanBase += runCost(b, alg, db, f, k)
		meanSharded += runShardedCost(b, alg, db, f, k, shards, 1)
	}
	meanBase /= float64(len(dbs))
	meanSharded /= float64(len(dbs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dbs[i%len(dbs)]
		srcs := make([]subsys.Source, db.M())
		for j := range srcs {
			srcs[j] = subsys.NewLatencySource(subsys.FromList(db.List(j)), benchSourceLatency, 0)
		}
		cfg := core.ShardConfig{Shards: shards, Prefetch: prefetch}
		if _, err := core.EvaluateSharded(context.Background(), alg, srcs, f, k, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(meanBase, "middleware-cost/op")
	b.ReportMetric(meanSharded, "sharded-cost/op")
}

// BenchmarkE2_A0_GeneralM_ShardedLatency — the composed mode's headline:
// the E2/m=5 workload over 1 ms/call remote sources, sharded 4 ways WITH
// per-shard prefetch pipelines (WithShards ∘ WithPrefetch). The
// acceptance figure of this PR: ns/op here must be ≥5x below the
// NoPrefetch twin — per-shard batched sorted readahead plus the
// 64-wide random-access overlap, where the sharded-but-serial path pays
// a full round trip per access.
func BenchmarkE2_A0_GeneralM_ShardedLatency(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchShardedLatencyOver(b, core.A0{}, dbs, agg.Min, 10, 4, true)
		})
	}
}

// BenchmarkE2_A0_GeneralM_ShardedLatencyNoPrefetch — the same sharded
// query without prefetch: the serial-inside sharded path this PR
// composes away. One op is minutes of simulated round trips; run with
// -benchtime 1x only.
func BenchmarkE2_A0_GeneralM_ShardedLatencyNoPrefetch(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchShardedLatencyOver(b, core.A0{}, dbs, agg.Min, 10, 4, false)
		})
	}
}

// runShardedCost executes one sharded evaluation and returns its total
// unweighted middleware cost.
func runShardedCost(b *testing.B, alg core.Algorithm, db *scoredb.Database, f agg.Func, k, shards, par int) float64 {
	b.Helper()
	srcs := make([]subsys.Source, db.M())
	for i := range srcs {
		srcs[i] = subsys.FromList(db.List(i))
	}
	sr, err := core.EvaluateSharded(context.Background(), alg, srcs, f, k,
		core.ShardConfig{Shards: shards, Parallel: par})
	if err != nil {
		b.Fatal(err)
	}
	return float64(sr.Cost.Sum())
}

// benchShardedOver times the sharded evaluation (shards fanned out on
// GOMAXPROCS workers) and reports two deterministic cost metrics:
//
//   - middleware-cost/op — the Section 5 tallies of the EQUIVALENT
//     UNSHARDED evaluation: the semantic access work of the query, which
//     sharding must never change and which cmd/benchjson -compare pins
//     to the base benchmark's historical baseline bit for bit.
//   - sharded-cost/op — the partitioned evaluation's own total tallies
//     under sequential (deterministic) shard execution: the price of
//     partitioning, tracked as its own trajectory from BENCH_PR3.json
//     onward. On uniform data it exceeds the unsharded figure (each
//     shard scans its own slice); the threshold merge keeps the excess
//     bounded, and on skewed data drives it below the unsharded tally
//     (see BenchmarkE17_ShardedSkew).
func benchShardedOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k, shards int) {
	b.Helper()
	var meanBase, meanSharded float64
	for _, db := range dbs {
		meanBase += runCost(b, alg, db, f, k)
		meanSharded += runShardedCost(b, alg, db, f, k, shards, 1)
	}
	meanBase /= float64(len(dbs))
	meanSharded /= float64(len(dbs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runShardedCost(b, alg, dbs[i%len(dbs)], f, k, shards, 0)
	}
	b.StopTimer()
	b.ReportMetric(meanBase, "middleware-cost/op")
	b.ReportMetric(meanSharded, "sharded-cost/op")
}

// BenchmarkE1_A0_SqrtN_Sharded — the E1 workload over 4 partitioned
// universe slices with the threshold-aware merge. Wall-clock rides the
// shard fan-out (one worker per shard, serial inside), so it tracks the
// serial figure divided by the core count available to the runner.
func BenchmarkE1_A0_SqrtN_Sharded(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchShardedOver(b, core.A0{}, dbs, agg.Min, 10, 4)
		})
	}
}

// BenchmarkE2_A0_GeneralM_Sharded — the E2 workload sharded 4 ways.
func BenchmarkE2_A0_GeneralM_Sharded(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchShardedOver(b, core.A0{}, dbs, agg.Min, 10, 4)
		})
	}
}

// skewedShardDB builds the skewed workload of the threshold-merge claim:
// every global top answer lives in the first quarter of the universe
// (high correlated grades in both lists), while the remaining ids carry
// mid-range grades in list 1 — pollution the unsharded round-robin must
// wade through — and grades ≈0 in list 2. The hot shard's re-ranked view
// never sees the polluters, and every cold shard's threshold collapses
// below the published global k-th grade after one round.
func skewedShardDB(b *testing.B, n, hot int) *scoredb.Database {
	b.Helper()
	e1 := make([]fuzzydb.Entry, n)
	e2 := make([]fuzzydb.Entry, n)
	for i := 0; i < n; i++ {
		var g1, g2 float64
		if i < hot {
			g1 = 0.999 - float64(i)/float64(hot)*0.95
			g2 = g1
		} else {
			g1 = 0.9 + (float64((i*7919)%n)+float64(i)/float64(n))/float64(n)*0.099
			g2 = (float64((i*104729)%n) + float64(i)/float64(n)) / float64(n) * 0.001
		}
		e1[i] = fuzzydb.Entry{Object: i, Grade: g1}
		e2[i] = fuzzydb.Entry{Object: i, Grade: g2}
	}
	l1, err := fuzzydb.NewList(e1)
	if err != nil {
		b.Fatal(err)
	}
	l2, err := fuzzydb.NewList(e2)
	if err != nil {
		b.Fatal(err)
	}
	db, err := scoredb.New([]*fuzzydb.List{l1, l2})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkE17_ShardedSkew — the early-stopped-shards case: on skewed
// data the sharded evaluation's total middleware cost (sharded-cost/op)
// drops far BELOW the unsharded tally (middleware-cost/op), because the
// cold shards fence after a handful of accesses instead of feeding the
// round-robin pollution the unsharded scan must pay for.
func BenchmarkE17_ShardedSkew(b *testing.B) {
	for _, n := range []int{16384, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			const shards = 4
			db := skewedShardDB(b, n, n/shards)
			base := runCost(b, core.A0{}, db, agg.Min, 10)
			sharded := runShardedCost(b, core.A0{}, db, agg.Min, 10, shards, 1)
			if sharded >= base {
				b.Fatalf("sharded cost %v not below unsharded %v on skewed data", sharded, base)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runShardedCost(b, core.A0{}, db, agg.Min, 10, shards, 0)
			}
			b.StopTimer()
			b.ReportMetric(base, "middleware-cost/op")
			b.ReportMetric(sharded, "sharded-cost/op")
		})
	}
}

// sketchesOf builds the exact grade-distribution sketch of every list —
// the planning metadata a loaded engine serves from its subsystems.
func sketchesOf(db *scoredb.Database) []*subsys.Sketch {
	sketches := make([]*subsys.Sketch, db.M())
	for i := range sketches {
		sketches[i] = subsys.SketchList(db.List(i))
	}
	return sketches
}

// runShardedDetail executes one sharded evaluation under cfg and returns
// its total middleware cost and the largest single shard's cost — the
// straggler the weighted planner exists to shrink. Callers pass
// Parallel=1 configurations when the figures must be deterministic.
func runShardedDetail(b *testing.B, alg core.Algorithm, db *scoredb.Database, f agg.Func, k int, cfg core.ShardConfig) (total, maxShard float64) {
	b.Helper()
	srcs := make([]subsys.Source, db.M())
	for i := range srcs {
		srcs[i] = subsys.FromList(db.List(i))
	}
	sr, err := core.EvaluateSharded(context.Background(), alg, srcs, f, k, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range sr.PerShard {
		if s := float64(c.Sum()); s > maxShard {
			maxShard = s
		}
	}
	return float64(sr.Cost.Sum()), maxShard
}

// benchWeightedShardedOver times the sharded evaluation under the
// weighted (sketch-quantile) plan. middleware-cost/op is the unsharded
// tally pinned to the base benchmark's baseline (moving shard
// boundaries never changes the semantic access work of the query);
// weighted-sharded-cost/op is the weighted partition's own total under
// sequential (deterministic) shard execution, a new unit tracked from
// BENCH_PR9.json onward.
func benchWeightedShardedOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k, shards int) {
	b.Helper()
	sketches := make([][]*subsys.Sketch, len(dbs))
	var meanBase, meanWeighted float64
	for d, db := range dbs {
		sketches[d] = sketchesOf(db)
		meanBase += runCost(b, alg, db, f, k)
		total, _ := runShardedDetail(b, alg, db, f, k,
			core.ShardConfig{Shards: shards, Parallel: 1, Plan: core.ShardPlanWeighted, Sketches: sketches[d]})
		meanWeighted += total
	}
	meanBase /= float64(len(dbs))
	meanWeighted /= float64(len(dbs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := i % len(dbs)
		runShardedDetail(b, alg, dbs[d], f, k,
			core.ShardConfig{Shards: shards, Plan: core.ShardPlanWeighted, Sketches: sketches[d]})
	}
	b.StopTimer()
	b.ReportMetric(meanBase, "middleware-cost/op")
	b.ReportMetric(meanWeighted, "weighted-sharded-cost/op")
}

// BenchmarkE1_A0_SqrtN_WeightedShard — the E1 workload sharded 4 ways
// under the weighted plan. On uniform data the sketch quantiles land
// near the even cuts, so this variant pins the degenerate-adjacent
// regime: cost metrics identical to the base E1 baseline, the weighted
// partition's own tallies tracking the even _Sharded trajectory.
func BenchmarkE1_A0_SqrtN_WeightedShard(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchWeightedShardedOver(b, core.A0{}, dbs, agg.Min, 10, 4)
		})
	}
}

// BenchmarkE2_A0_GeneralM_WeightedShard — the E2 workload sharded 4
// ways under the weighted plan, across m.
func BenchmarkE2_A0_GeneralM_WeightedShard(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchWeightedShardedOver(b, core.A0{}, dbs, agg.Min, 10, 4)
		})
	}
}

// skewedPlanDB builds the weighted planner's workload: all grade mass
// and every global winner lives in the hot prefix, whose two lists are
// ANTI-correlated — an object at g1-rank r among the hot ids sits at
// g1-rank hot−1−r in list 2 — so the sorted prefixes of any hot slice
// only begin to intersect after covering half its width, and a shard
// over a hot slice of width w pays Θ(w) accesses. (The reversal
// survives restriction to any id slice, so the linear law holds for
// every shard the planner draws.) The cold tail carries near-zero mass
// in both lists and fences immediately. An even 4-way split hands
// shard 0 the entire hot region — a straggler carrying the whole
// partitioned cost — while the weighted plan cuts the hot region at
// mass quartiles.
func skewedPlanDB(b *testing.B, n, hot int) *scoredb.Database {
	b.Helper()
	e1 := make([]fuzzydb.Entry, n)
	e2 := make([]fuzzydb.Entry, n)
	for i := 0; i < n; i++ {
		var g1, g2 float64
		if i < hot {
			r := (i * 7919) % hot
			g1 = 0.5 + 0.5*(float64(r)+0.5)/float64(hot)
			g2 = 0.5 + 0.5*(float64(hot-1-r)+0.5)/float64(hot)
		} else {
			h := float64((i*104729)%n) / float64(n)
			g1 = 0.4 * h
			g2 = 0.0004 * h
		}
		e1[i] = fuzzydb.Entry{Object: i, Grade: g1}
		e2[i] = fuzzydb.Entry{Object: i, Grade: g2}
	}
	l1, err := fuzzydb.NewList(e1)
	if err != nil {
		b.Fatal(err)
	}
	l2, err := fuzzydb.NewList(e2)
	if err != nil {
		b.Fatal(err)
	}
	db, err := scoredb.New([]*fuzzydb.List{l1, l2})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkE17_ShardedSkew_WeightedShard — the headline of the weighted
// planner: on the anti-correlated skewed workload the even split hands
// one shard the whole hot region and that straggler carries nearly the
// entire partitioned cost. Cutting at sketch quantiles spreads the hot
// mass across all shards, so the gate asserts the weighted plan's
// largest shard costs at most half the even plan's largest — with the
// total no worse. Both figures are deterministic (Parallel=1) and
// travel as max-shard-cost/op and weighted-sharded-cost/op;
// middleware-cost/op is this workload's own unsharded tally.
func BenchmarkE17_ShardedSkew_WeightedShard(b *testing.B) {
	for _, n := range []int{16384, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			const shards = 4
			db := skewedPlanDB(b, n, n/shards)
			sketches := sketchesOf(db)
			base := runCost(b, core.A0{}, db, agg.Min, 10)
			evenTotal, evenMax := runShardedDetail(b, core.A0{}, db, agg.Min, 10,
				core.ShardConfig{Shards: shards, Parallel: 1})
			wCfg := core.ShardConfig{Shards: shards, Parallel: 1, Plan: core.ShardPlanWeighted, Sketches: sketches}
			wTotal, wMax := runShardedDetail(b, core.A0{}, db, agg.Min, 10, wCfg)
			if wMax > 0.5*evenMax {
				b.Fatalf("weighted max shard cost %v exceeds half the even plan's %v", wMax, evenMax)
			}
			if wTotal > evenTotal {
				b.Fatalf("weighted total %v worse than even total %v", wTotal, evenTotal)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runShardedDetail(b, core.A0{}, db, agg.Min, 10, wCfg)
			}
			b.StopTimer()
			b.ReportMetric(base, "middleware-cost/op")
			b.ReportMetric(wTotal, "weighted-sharded-cost/op")
			b.ReportMetric(wMax, "max-shard-cost/op")
		})
	}
}

// BenchmarkE2_A0_GeneralM_Stealing — the E2 workload sharded 4 ways
// with parallel workers and work stealing enabled: the wall-clock
// trajectory of the racy mode. Stealing splits shards at
// scheduling-dependent points, so the evaluation's own tallies are not
// deterministic and no sharded unit is reported; the gated
// middleware-cost/op is the unsharded tally computed outside the timed
// loop, pinned to the base E2 baseline. Run the multi-core CI job with
// GOMAXPROCS>1 for steals to actually occur — on one processor the
// flag is live but splits rarely fire.
func BenchmarkE2_A0_GeneralM_Stealing(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			var mean float64
			for _, db := range dbs {
				mean += runCost(b, core.A0{}, db, agg.Min, 10)
			}
			mean /= float64(len(dbs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := dbs[i%len(dbs)]
				srcs := make([]subsys.Source, db.M())
				for j := range srcs {
					srcs[j] = subsys.FromList(db.List(j))
				}
				cfg := core.ShardConfig{Shards: 4, Steal: true}
				if _, err := core.EvaluateSharded(context.Background(), core.A0{}, srcs, agg.Min, 10, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(mean, "middleware-cost/op")
		})
	}
}

// BenchmarkE3_A0_KScaling — Thm 5.3: cost ∝ k^(1/m) at fixed N.
func BenchmarkE3_A0_KScaling(b *testing.B) {
	dbs := genDBs(65536, 2, 4, scoredb.Uniform{}, 3)
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchOver(b, core.A0{}, dbs, agg.Min, k)
		})
	}
}

// BenchmarkE4_WimmersBound — tail of the per-list sorted depth: reports
// the max depth/√(Nk) ratio observed; [Wi98b] bounds exceedances of 2 by
// 2e-8.
func BenchmarkE4_WimmersBound(b *testing.B) {
	const n, k = 16384, 10
	dbs := genDBs(n, 2, 8, scoredb.Uniform{}, 4)
	var maxRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dbs[i%len(dbs)]
		srcs := []subsys.Source{subsys.FromList(db.List(0)), subsys.FromList(db.List(1))}
		_, c, err := core.Evaluate(context.Background(), core.A0{}, srcs, agg.Min, k)
		if err != nil {
			b.Fatal(err)
		}
		depth := float64(c.Sorted) / 2
		if r := depth / math.Sqrt(float64(n*k)); r > maxRatio {
			maxRatio = r
		}
	}
	b.StopTimer()
	b.ReportMetric(maxRatio, "max-depth/sqrt(Nk)")
}

// BenchmarkE5_LowerBound — Thm 6.4: fraction of runs at or below the
// θ = 0.5 envelope (must be ≤ θ^m = 0.25).
func BenchmarkE5_LowerBound(b *testing.B) {
	const n, m, k = 16384, 2, 5
	dbs := genDBs(n, m, 8, scoredb.Uniform{}, 5)
	norm := math.Pow(float64(n), 0.5) * math.Pow(k, 0.5)
	below := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runCost(b, core.A0{}, dbs[i%len(dbs)], agg.Min, k) <= 0.5*norm {
			below++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(below)/float64(b.N), "frac-below-theta-envelope")
}

// BenchmarkE6_ThetaBound — Thm 6.5: normalized cost stays in a constant
// band across N.
func BenchmarkE6_ThetaBound(b *testing.B) {
	for _, n := range []int{16384, 131072} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 6)
			norm := math.Sqrt(float64(n) * 10)
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += runCost(b, core.A0{}, dbs[i%len(dbs)], agg.Min, 10) / norm
			}
			b.StopTimer()
			b.ReportMetric(total/float64(b.N), "cost/theta-bound")
		})
	}
}

// BenchmarkE7_B0_Disjunction — Rem 6.1: B₀ costs exactly mk regardless
// of N.
func BenchmarkE7_B0_Disjunction(b *testing.B) {
	for _, n := range []int{4096, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 3, 4, scoredb.Uniform{}, 7)
			benchOver(b, core.B0{}, dbs, agg.Max, 10)
		})
	}
}

// BenchmarkE8_Median — Rem 6.1: subset decomposition beats generic A₀ on
// the median.
func BenchmarkE8_Median(b *testing.B) {
	dbs := genDBs(65536, 3, 4, scoredb.Uniform{}, 8)
	b.Run("subset-decomposition", func(b *testing.B) {
		benchOver(b, core.OrderStat{}, dbs, agg.Median, 5)
	})
	b.Run("generic-A0", func(b *testing.B) {
		benchOver(b, core.A0{}, dbs, agg.Median, 5)
	})
}

// BenchmarkE9_HardQuery — Thm 7.1: Q ∧ ¬Q costs Θ(N).
func BenchmarkE9_HardQuery(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := make([]*scoredb.Database, 4)
			for i := range dbs {
				db, err := scoredb.HardQueryPair(n, uint64(9+i))
				if err != nil {
					b.Fatal(err)
				}
				dbs[i] = db
			}
			benchOver(b, core.A0{}, dbs, agg.Min, 1)
		})
	}
}

// BenchmarkE10_Ullman — Sec 9: constant cost on bounded grades, Θ(√N) on
// uniform.
func BenchmarkE10_Ullman(b *testing.B) {
	const n = 65536
	b.Run("bounded-0.9", func(b *testing.B) {
		dbs := make([]*scoredb.Database, 4)
		for i := range dbs {
			l1 := scoredb.Generator{N: n, M: 1, Law: scoredb.BoundedAbove{Max: 0.9}, Seed: uint64(10 + i)}.MustGenerate().List(0)
			l2 := scoredb.Generator{N: n, M: 1, Law: scoredb.Uniform{}, Seed: uint64(1010 + i)}.MustGenerate().List(0)
			db, err := scoredb.New([]*fuzzydb.List{l1, l2})
			if err != nil {
				b.Fatal(err)
			}
			dbs[i] = db
		}
		benchOver(b, core.Ullman{}, dbs, agg.Min, 1)
	})
	b.Run("uniform", func(b *testing.B) {
		dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 11)
		benchOver(b, core.Ullman{}, dbs, agg.Min, 1)
	})
}

// BenchmarkE11_A0Prime — Sec 4: A₀′'s random-access saving over A₀.
func BenchmarkE11_A0Prime(b *testing.B) {
	dbs := genDBs(65536, 3, 4, scoredb.Uniform{}, 12)
	b.Run("A0", func(b *testing.B) {
		benchOver(b, core.A0{}, dbs, agg.Min, 10)
	})
	b.Run("A0Prime", func(b *testing.B) {
		benchOver(b, core.A0Prime{}, dbs, agg.Min, 10)
	})
}

// BenchmarkE12_TNormRobustness — Secs 3/5: TA across strict aggregation
// functions (and the non-strict max for contrast).
func BenchmarkE12_TNormRobustness(b *testing.B) {
	dbs := genDBs(32768, 2, 4, scoredb.Uniform{}, 13)
	funcs := []agg.Func{agg.Min, agg.AlgebraicProduct, agg.BoundedDifference, agg.ArithmeticMean, agg.Max}
	for _, f := range funcs {
		b.Run(f.Name(), func(b *testing.B) {
			benchOver(b, core.TA{}, dbs, f, 10)
		})
	}
}

// BenchmarkE13_Correlation — Sec 7: cost falls as correlation rises.
func BenchmarkE13_Correlation(b *testing.B) {
	for _, rho := range []float64{-1, 0, 1} {
		b.Run(fmt.Sprintf("rho=%v", rho), func(b *testing.B) {
			dbs := make([]*scoredb.Database, 4)
			for i := range dbs {
				dbs[i] = scoredb.Generator{N: 16384, M: 2, Law: scoredb.Uniform{}, Seed: uint64(14 + i), Correlation: rho}.MustGenerate()
			}
			benchOver(b, core.A0{}, dbs, agg.Min, 10)
		})
	}
}

// BenchmarkE14_TAvsFA — the successor-family ablation.
func BenchmarkE14_TAvsFA(b *testing.B) {
	dbs := genDBs(65536, 2, 4, scoredb.Uniform{}, 15)
	algs := []core.Algorithm{core.A0{}, core.A0Prime{}, core.TA{}, core.NRA{}, core.Ullman{}}
	for _, alg := range algs {
		b.Run(alg.Name(), func(b *testing.B) {
			benchOver(b, alg, dbs, agg.Min, 10)
		})
	}
}

// BenchmarkE15_WeightedCostModel — Sec 5 inequality (1): skewed access
// prices preserve the Θ shape; reported metric is the weighted cost.
func BenchmarkE15_WeightedCostModel(b *testing.B) {
	dbs := genDBs(65536, 2, 4, scoredb.Uniform{}, 16)
	model := fuzzydb.CostModel{C1: 10, C2: 1}
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dbs[i%len(dbs)]
		srcs := []subsys.Source{subsys.FromList(db.List(0)), subsys.FromList(db.List(1))}
		_, c, err := core.Evaluate(context.Background(), core.A0{}, srcs, agg.Min, 10)
		if err != nil {
			b.Fatal(err)
		}
		total += model.Of(c)
	}
	b.StopTimer()
	b.ReportMetric(total/float64(b.N), "weighted-cost/op")
}

// BenchmarkE16_FilterFirst — Sec 4: the selective-conjunct plan against
// A0' on a rare binary predicate.
func BenchmarkE16_FilterFirst(b *testing.B) {
	const n = 32768
	dbs := make([]*scoredb.Database, 4)
	for i := range dbs {
		l0 := scoredb.Generator{N: n, M: 1, Law: scoredb.Binary{P: 0.002}, Seed: uint64(17 + i)}.MustGenerate().List(0)
		l1 := scoredb.Generator{N: n, M: 1, Law: scoredb.Uniform{}, Seed: uint64(1700 + i)}.MustGenerate().List(0)
		db, err := scoredb.New([]*fuzzydb.List{l0, l1})
		if err != nil {
			b.Fatal(err)
		}
		dbs[i] = db
	}
	b.Run("filter-first", func(b *testing.B) {
		benchOver(b, core.FilterFirst{}, dbs, agg.Min, 5)
	})
	b.Run("A0Prime", func(b *testing.B) {
		benchOver(b, core.A0Prime{}, dbs, agg.Min, 5)
	})
}

// BenchmarkEngineEndToEnd measures the full middleware path (parse, plan,
// evaluate) on the running example, the operation a Garlic deployment
// performs per user query.
func BenchmarkEngineEndToEnd(b *testing.B) {
	const n = 4096
	artists := make([]string, n)
	covers := make([][]float64, n)
	for i := range artists {
		if i%7 == 0 {
			artists[i] = "Beatles"
		} else {
			artists[i] = fmt.Sprintf("artist-%d", i%50)
		}
		covers[i] = []float64{float64(i%11) / 10, float64(i%13) / 12, float64(i%17) / 16}
	}
	eng, err := fuzzydb.NewEngine([]fuzzydb.Subsystem{
		fuzzydb.NewRelationalSubsystem("Artist", artists),
		fuzzydb.NewVectorSubsystem("AlbumColor", covers, map[string][]float64{"red": {1, 0, 0}}),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red"`, fuzzydb.TopN(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput is the concurrent-query load benchmark for
// the million-user target: many goroutines hammer one Engine's shared
// subsystems through the request API at once, so the pooled per-query
// state (dense caches, scratch, readahead buffers) is contended exactly
// as a deployment would contend it. Reported queries/sec is the
// aggregate engine throughput on this runner; allocs/op sizes the pools
// (steady-state allocations per query are what throttle the collector
// under sustained load). Wall-clock metrics only — nothing here is
// gated by the cost-regression harness.
func BenchmarkEngineThroughput(b *testing.B) {
	const n = 16384
	db := scoredb.Generator{N: n, M: 2, Seed: 23}.MustGenerate()
	a1 := fuzzydb.NewStaticSubsystem("A1", n)
	a1.Set("*", db.List(0))
	a2 := fuzzydb.NewStaticSubsystem("A2", n)
	a2.Set("*", db.List(1))
	eng, err := fuzzydb.NewEngine([]fuzzydb.Subsystem{a1, a2})
	if err != nil {
		b.Fatal(err)
	}
	q, err := fuzzydb.ParseQuery(`A1 = "*" AND A2 = "*"`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Query(ctx, q, fuzzydb.TopN(10)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "queries/sec")
	}
}

// BenchmarkEngineThroughput_Saturated extends BenchmarkEngineThroughput
// past the cooperative regime: the same workload behind an admission
// scheduler, driven by a mixed-tenant load generator at 4×
// oversubscription (4·MaxConcurrent callers split across two
// equal-weight tenants, each query under its own deadline). Reported
// alongside sustained queries/sec: p50/p99 latency, the shed rate, and
// the Jain fairness index over the tenants' settled access-cost shares
// — 1.0 is perfectly fair; the run fails if either tenant's share
// drifts more than 20% from its fair half, or if any shed request
// surfaces as anything but a typed *fuzzydb.OverloadError carrying a
// positive RetryAfter. Wall-clock metrics only — nothing here is gated
// by the cost-regression harness.
func BenchmarkEngineThroughput_Saturated(b *testing.B) {
	const (
		n       = 16384
		maxConc = 4
		oversub = 4
	)
	db := scoredb.Generator{N: n, M: 2, Seed: 23}.MustGenerate()
	a1 := fuzzydb.NewStaticSubsystem("A1", n)
	a1.Set("*", db.List(0))
	a2 := fuzzydb.NewStaticSubsystem("A2", n)
	a2.Set("*", db.List(1))
	tenants := []string{"tenant-a", "tenant-b"}
	sched := fuzzydb.NewScheduler(fuzzydb.SchedulerConfig{
		MaxConcurrent: maxConc,
		MaxQueue:      4, // small, so oversubscription genuinely sheds
		Rate:          1e9,
		Burst:         1e9, // generous buckets: the pressure is the concurrency gate
		Tenants: map[string]fuzzydb.SchedulerTenantConfig{
			tenants[0]: {Weight: 1},
			tenants[1]: {Weight: 1},
		},
	})
	eng, err := fuzzydb.NewEngine([]fuzzydb.Subsystem{a1, a2}, fuzzydb.WithScheduler(sched))
	if err != nil {
		b.Fatal(err)
	}
	q, err := fuzzydb.ParseQuery(`A1 = "*" AND A2 = "*"`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	workers := maxConc * oversub
	latencies := make([][]time.Duration, workers)
	var issued, shed, badShed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := tenants[w%len(tenants)]
			for issued.Add(1) <= int64(b.N) {
				qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				start := time.Now()
				_, qerr := eng.Query(qctx, q, fuzzydb.TopN(10), fuzzydb.WithTenant(tenant))
				cancel()
				if qerr != nil {
					var oe *fuzzydb.OverloadError
					if !errors.As(qerr, &oe) || oe.RetryAfter <= 0 {
						badShed.Add(1)
					}
					shed.Add(1)
					continue
				}
				latencies[w] = append(latencies[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if badShed.Load() > 0 {
		b.Fatalf("%d rejections were not typed *fuzzydb.OverloadError with positive RetryAfter", badShed.Load())
	}
	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)/2]), "p50-ns")
		b.ReportMetric(float64(all[len(all)*99/100]), "p99-ns")
	}
	var shares []float64
	var total float64
	for _, st := range sched.Stats() {
		shares = append(shares, st.SettledCost)
		total += st.SettledCost
	}
	if len(shares) == 2 && total > 0 {
		// Jain fairness index: (Σx)² / (k·Σx²); 1.0 = perfectly fair.
		var sq float64
		for _, x := range shares {
			sq += x * x
		}
		b.ReportMetric(total*total/(float64(len(shares))*sq), "fairness-index")
		// Only judge fairness once the sample is big enough to be
		// signal: short calibration runs (-benchtime=1x) stay silent.
		if int64(b.N) >= 256 {
			for i, x := range shares {
				if share := x / total; share < 0.4 || share > 0.6 {
					b.Fatalf("tenant %d settled share %.3f drifts more than 20%% from its fair half (shares %v)", i, share, shares)
				}
			}
		}
	}
	done := int64(len(all))
	if issuedN := done + shed.Load(); issuedN > 0 {
		b.ReportMetric(float64(shed.Load())/float64(issuedN), "shed-rate")
	}
	if secs := b.Elapsed().Seconds(); secs > 0 && done > 0 {
		b.ReportMetric(float64(done)/secs, "queries/sec")
	}
}

// benchCachedQuery parses the conjunction over lists A1…Am that the
// cached benchmark variants evaluate — the same query shape the base E2
// workload runs as a raw core evaluation.
func benchCachedQuery(b *testing.B, m int) fuzzydb.Query {
	b.Helper()
	s := `A1 = "*"`
	for i := 2; i <= m; i++ {
		s += fmt.Sprintf(` AND A%d = "*"`, i)
	}
	q, err := fuzzydb.ParseQuery(s)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// benchCachedRepeat times the E2 workload behind a result-cached engine
// under a skewed repeat mix: every distinct (database, k) key is warmed
// outside the timed loop, then a power-law-skewed stream of repeats is
// served entirely from the cache — the steady state the cache exists
// for. The gated middleware-cost/op is computed over the raw lists
// outside the timed loop exactly as benchOver does, so it stays
// bit-identical to the base E2 baseline (cmd/benchjson strips the
// _CachedRepeat suffix and compares against exactly that); ns/op records
// the O(k) hit path, the ≥20x headline against the base benchmark.
func benchCachedRepeat(b *testing.B, dbs []*scoredb.Database, f agg.Func, k int) {
	b.Helper()
	var mean float64
	for _, db := range dbs {
		mean += runCost(b, core.A0{}, db, f, k)
	}
	mean /= float64(len(dbs))

	const kinds = 16 // distinct k values per engine: k, k+1, …, k+kinds−1
	engines := make([]*fuzzydb.Engine, len(dbs))
	for d, db := range dbs {
		subs := make([]fuzzydb.Subsystem, db.M())
		for i := 0; i < db.M(); i++ {
			s := fuzzydb.NewStaticSubsystem(fmt.Sprintf("A%d", i+1), db.N())
			s.Set("*", db.List(i))
			subs[i] = s
		}
		eng, err := fuzzydb.NewEngine(subs, fuzzydb.WithCache(2*kinds))
		if err != nil {
			b.Fatal(err)
		}
		engines[d] = eng
	}
	q := benchCachedQuery(b, dbs[0].M())
	ctx := context.Background()
	for _, eng := range engines {
		for j := 0; j < kinds; j++ {
			if _, err := eng.Query(ctx, q, fuzzydb.TopN(k+j)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Skewed repeats: a power-law pick concentrates most lookups on a few
	// hot keys (math/rand/v2 has no Zipf; x³ of a uniform is close enough
	// and deterministic under the fixed seed).
	rng := rand.New(rand.NewPCG(0xfa61, 96))
	total := len(engines) * kinds
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick := int(float64(total) * math.Pow(rng.Float64(), 3))
		rep, err := engines[pick%len(engines)].Query(ctx, q, fuzzydb.TopN(k+pick/len(engines)))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Cache != nil && rep.Cache.Hit {
			hits++
		}
	}
	b.StopTimer()
	b.ReportMetric(mean, "middleware-cost/op")
	b.ReportMetric(float64(hits)/float64(b.N), "cache-hit-rate")
}

// benchCachedWriteMix drives cached engines over MUTABLE subsystems
// through an update/query mix: most writes land low grades strictly
// below any top-k threshold (τ-survivable — the entry's threshold test
// proves they cannot disturb the cached answer), while one write in
// eight raises an object above the threshold and must evict. The gated
// middleware-cost/op is the pristine-data E2 cost — UpdateGrade copies
// on write, so the generator's lists are never touched — bit-identical
// to the base baseline. The post-update hit-rate (the fraction of
// queries still served from cache with a write landing before each one)
// comes from a fixed-length deterministic schedule outside the timed
// loop, so the snapshot comparison sees a stable value; ns/op times the
// steady-state mix itself.
func benchCachedWriteMix(b *testing.B, dbs []*scoredb.Database, f agg.Func, k int) {
	b.Helper()
	var mean float64
	for _, db := range dbs {
		mean += runCost(b, core.A0{}, db, f, k)
	}
	mean /= float64(len(dbs))

	muts := make([][]*fuzzydb.MutableSubsystem, len(dbs))
	engines := make([]*fuzzydb.Engine, len(dbs))
	for d, db := range dbs {
		subs := make([]fuzzydb.Subsystem, db.M())
		muts[d] = make([]*fuzzydb.MutableSubsystem, db.M())
		for i := 0; i < db.M(); i++ {
			ms := fuzzydb.NewMutableSubsystem(fmt.Sprintf("A%d", i+1), db.N())
			ms.Set("*", db.List(i))
			muts[d][i] = ms
			subs[i] = ms
		}
		eng, err := fuzzydb.NewEngine(subs, fuzzydb.WithCache(8))
		if err != nil {
			b.Fatal(err)
		}
		engines[d] = eng
	}
	q := benchCachedQuery(b, dbs[0].M())
	ctx := context.Background()
	n := dbs[0].N()

	// step applies one write then one query, tallying whether the cached
	// answer survived the write.
	step := func(rng *rand.Rand, s int, count, hits *int) {
		d := s % len(engines)
		list := muts[d][s%len(muts[d])]
		if s%8 == 7 {
			// A raise into the top k: above any cached threshold, so the
			// survival test must evict.
			_ = list.UpdateGrade("*", rng.IntN(n), 0.9995+0.0004*rng.Float64())
		} else {
			// A low write: with min-style aggregation its bound stays
			// strictly below the cached kth grade, so the entry survives.
			_ = list.UpdateGrade("*", rng.IntN(n), 0.2*rng.Float64())
		}
		rep, err := engines[d].Query(ctx, q, fuzzydb.TopN(k))
		if err != nil {
			b.Fatal(err)
		}
		*count++
		if rep.Cache != nil && rep.Cache.Hit {
			*hits++
		}
	}

	rng := rand.New(rand.NewPCG(0xfa61, 8))
	for _, eng := range engines {
		if _, err := eng.Query(ctx, q, fuzzydb.TopN(k)); err != nil {
			b.Fatal(err)
		}
	}
	count, hits := 0, 0
	for s := 0; s < 256; s++ {
		step(rng, s, &count, &hits)
	}
	rate := float64(hits) / float64(count)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(rng, i, &count, &hits)
	}
	b.StopTimer()
	b.ReportMetric(mean, "middleware-cost/op")
	b.ReportMetric(rate, "post-update-hit-rate")
}

// BenchmarkE2_A0_GeneralM_CachedRepeat — the E2 workload served from the
// result cache under a skewed repeat mix; the acceptance figure of the
// caching PR: ns/op here must be ≥20x below the uncached base E2 twin.
// Cost metrics are pinned to the base E2 baseline.
func BenchmarkE2_A0_GeneralM_CachedRepeat(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchCachedRepeat(b, dbs, agg.Min, 10)
		})
	}
}

// BenchmarkE2_A0_GeneralM_CachedWriteMix — the E2 workload over mutable
// sources under an interleaved update/query mix: τ-survivable writes
// keep serving hits, threshold-crossing writes evict and force a
// recompute. Cost metrics are pinned to the base E2 baseline; the
// post-update hit-rate shows invalidation evicting only the small
// fraction of writes that could actually disturb a cached answer.
func BenchmarkE2_A0_GeneralM_CachedWriteMix(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchCachedWriteMix(b, dbs, agg.Min, 10)
		})
	}
}

// benchWireDelay is the simulated propagation delay of the _Wire
// benchmark variants: the loopback server answers each source request
// after 250µs, modelling network distance over the otherwise fully real
// HTTP/TCP/JSON path. Loopback alone has no waiting to hide — its
// round trip is pure CPU (serialization and stack traversal), which no
// amount of overlap can compress on a saturated core — so the delay is
// what makes the wire benchmarks measure latency HIDING rather than
// codec throughput, exactly as benchSourceLatency does for the
// in-process _Latency variants.
const benchWireDelay = 250 * time.Microsecond

// benchWireOver times alg over wire-backed sources served by a real
// loopback HTTP server — the tentpole figure of the wire PR. Like the
// _Latency variants, the reported middleware-cost/op is computed over
// the undelayed in-process sources outside the timed loop: the wire
// moves bytes, never costs, so the metric stays pinned bit-for-bit to
// the base benchmark's baseline (cmd/benchjson strips the _Wire /
// _WireNoPrefetch suffix and compares against exactly that). ns/op
// records the network-dominated wall-clock: every physical access is a
// JSON round trip over loopback TCP through the pooled transport, paid
// a benchWireDelay propagation delay per request. One server carries
// all trial databases side by side (lists "db<i>/A<j>"), one shared
// client dials it, both set up outside the timed loop.
func benchWireOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int, x core.Executor) {
	b.Helper()
	var mean float64
	for _, db := range dbs {
		mean += runCost(b, alg, db, f, k)
	}
	mean /= float64(len(dbs))

	lists := make(map[string]subsys.Source)
	for d, db := range dbs {
		for i := 0; i < db.M(); i++ {
			lists[fmt.Sprintf("db%d/A%d", d, i+1)] = subsys.FromList(db.List(i))
		}
	}
	ss, err := wire.NewSourceServer(lists)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(benchWireDelay)
		ss.ServeHTTP(w, r)
	}))
	defer ts.Close()
	client, err := wire.Dial(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	srcs := make([][]subsys.Source, len(dbs))
	for d, db := range dbs {
		srcs[d] = make([]subsys.Source, db.M())
		for i := range srcs[d] {
			s, err := client.Source(fmt.Sprintf("db%d/A%d", d, i+1))
			if err != nil {
				b.Fatal(err)
			}
			srcs[d][i] = s
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Evaluate(context.Background(), alg, srcs[i%len(dbs)], f, k, core.WithExecutor(x)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(mean, "middleware-cost/op")
}

// BenchmarkE2_A0_GeneralM_Wire — the E2/m=5 workload over wire-backed
// sources under the pipelined executor: per-list batched sorted
// readahead plus the 128-wide random-access overlap, all riding warm
// pooled loopback connections. The acceptance figure of this PR: ns/op
// here must be ≥5x below the _WireNoPrefetch twin. Cost metrics are
// pinned to the base E2 baseline. Run with -benchtime 1x (one op is
// seconds of real round trips on the unpipelined twin).
func BenchmarkE2_A0_GeneralM_Wire(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchWireOver(b, core.A0{}, dbs, agg.Min, 10, core.Pipelined{P: 128})
		})
	}
}

// BenchmarkE2_A0_GeneralM_WireNoPrefetch — the same wire workload under
// the serial executor: one blocking HTTP round trip per access, the
// reference the pipelined figure is measured against. Run with
// -benchtime 1x only.
func BenchmarkE2_A0_GeneralM_WireNoPrefetch(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchWireOver(b, core.A0{}, dbs, agg.Min, 10, core.Serial{})
		})
	}
}
