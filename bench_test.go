package fuzzydb_test

// Wall-clock benchmarks, nothing else. The paper's claims as measured
// tables are EXPERIMENTS.md (internal/sim, written by cmd/faginbench); the
// exact tallies of the E1/E2 workloads under every executor, sharding,
// fault-stack and cache configuration are testdata/tallies.golden
// (tallies_test.go); the request path is measured by bench/. What is
// left here: E1 and E2 under the serial executor (the two wall-clocks
// tracked since PR 1), the same workloads over 1 ms/call and
// loopback-wire sources (pipelined executor against the concurrent or
// serial one — the only place either can win), and the engine end to end.
//
// Workload generation is excluded from timing: databases are drawn once
// per size outside the timed loop.

import (
	"context"
	"errors"
	"fmt"
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

// listSources adapts db's lists to fresh in-process sources.
func listSources(db *scoredb.Database) []subsys.Source {
	srcs := make([]subsys.Source, db.M())
	for i := range srcs {
		srcs[i] = subsys.FromList(db.List(i))
	}
	return srcs
}

// runCost executes one evaluation on fresh counters and returns the
// unweighted middleware cost.
func runCost(tb testing.TB, alg core.Algorithm, srcs []subsys.Source, f agg.Func, k int, opts ...core.EvalOption) int {
	tb.Helper()
	_, c, err := core.Evaluate(context.Background(), alg, srcs, f, k, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return c.Sum()
}

// benchOver runs alg over the given databases round-robin. The reported
// middleware-cost/op is information, not a gate (tallies_test.go pins
// the exact sums): the mean over the db set, computed once outside the
// timed loop, so it does not depend on b.N.
func benchOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int) {
	b.Helper()
	var total int
	for _, db := range dbs {
		total += runCost(b, alg, listSources(db), f, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCost(b, alg, listSources(dbs[i%len(dbs)]), f, k)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(len(dbs)), "middleware-cost/op")
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

// benchSourceLatency is the simulated per-call backend latency of the
// _Latency benchmark variants: every physical source call — one batched
// sorted span or one random probe — costs one millisecond, the IO-bound
// regime where the executor's shape dominates wall-clock.
const benchSourceLatency = time.Millisecond

// latencySources is db's lists behind 1 ms/call latency wrappers.
func latencySources(db *scoredb.Database) []subsys.Source {
	srcs := listSources(db)
	for i, s := range srcs {
		srcs[i] = subsys.NewLatencySource(s, benchSourceLatency)
	}
	return srcs
}

// benchLatencyOver times alg under the given options over
// latency-wrapped sources (1 ms per physical call, batch-amortized):
// ns/op is the latency-dominated wall-clock these variants exist to
// track. Ops here take 10^2–10^5 ms, so run them with -benchtime 1x
// (each op is deterministic in access count; only scheduling jitters).
func benchLatencyOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int, opts ...core.EvalOption) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runCost(b, alg, latencySources(dbs[i%len(dbs)]), f, k, opts...)
	}
}

// BenchmarkE1_A0_SqrtN_Latency — the E1 workload over 1 ms/call remote
// sources under the pipelined executor: adaptive batched readahead per
// list plus a 128-wide random-access overlap. ns/op against the access
// tally times 1 ms — what a serial run would wait — is the
// latency-hiding win.
func BenchmarkE1_A0_SqrtN_Latency(b *testing.B) {
	for _, n := range []int{4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dbs := genDBs(n, 2, 4, scoredb.Uniform{}, 1)
			benchLatencyOver(b, core.A0{}, dbs, agg.Min, 10, core.WithExecutor(core.Pipelined{P: 128}))
		})
	}
}

// BenchmarkE2_A0_GeneralM_Latency — the E2/m=5 workload over 1 ms/call
// remote sources under the pipelined executor: the random-access phase
// (~10^5 probes) overlaps 128 wide, an IO-bound speedup that shows even
// on one CPU.
func BenchmarkE2_A0_GeneralM_Latency(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchLatencyOver(b, core.A0{}, dbs, agg.Min, 10, core.WithExecutor(core.Pipelined{P: 128}))
		})
	}
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
// under sustained load).
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
// positive RetryAfter.
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
// loopback HTTP server. ns/op records the network-dominated wall-clock:
// every physical access is a JSON round trip over loopback TCP through
// the pooled transport, paid a benchWireDelay propagation delay per
// request (that the wire moves bytes, never tallies, is
// internal/wire's TestLoopbackEquivalence). One server carries
// all trial databases side by side (lists "db<i>/A<j>"), one shared
// client dials it, both set up outside the timed loop.
func benchWireOver(b *testing.B, alg core.Algorithm, dbs []*scoredb.Database, f agg.Func, k int, opts ...core.EvalOption) {
	b.Helper()
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
		runCost(b, alg, srcs[i%len(dbs)], f, k, opts...)
	}
}

// BenchmarkE2_A0_GeneralM_Wire — the E2/m=5 workload over wire-backed
// sources under the pipelined executor: per-list batched sorted
// readahead plus the 128-wide random-access overlap, all riding warm
// pooled loopback connections. The acceptance figure of this PR: ns/op
// here must be ≥5x below the _WireNoPrefetch twin. Run with
// -benchtime 1x (one op is seconds of real round trips on the
// unpipelined twin).
func BenchmarkE2_A0_GeneralM_Wire(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchWireOver(b, core.A0{}, dbs, agg.Min, 10, core.WithExecutor(core.Pipelined{P: 128}))
		})
	}
}

// BenchmarkE2_A0_GeneralM_WireNoPrefetch — the same wire workload under
// no executor, so serially: one blocking HTTP round trip per access, the
// reference the pipelined figure is measured against. Run with
// -benchtime 1x only.
func BenchmarkE2_A0_GeneralM_WireNoPrefetch(b *testing.B) {
	for _, m := range []int{5} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			dbs := genDBs(32768, m, 4, scoredb.Uniform{}, 2)
			benchWireOver(b, core.A0{}, dbs, agg.Min, 10)
		})
	}
}
