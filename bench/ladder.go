package main

import (
	"context"
	"runtime"
	"time"

	"fuzzydb"
	"fuzzydb/internal/core"
	"fuzzydb/internal/query"
	"fuzzydb/internal/subsys"
)

// The ladder times each layer's exported entry points in isolation, on
// one goroutine, over the workload's own data and one of its own
// queries: the bare lists, the metering wrapper, the aggregation
// kernel, core.Evaluate under each executor, parse, plan, the bare
// engine, the cache and the scheduler. Each rung adds one layer to the
// one below, so a layer's price is a subtraction.

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink float64

// repeated calls measure until budget is spent (and at least minReps
// times) and returns the component-wise medians of what it returned.
func repeated(budget time.Duration, minReps int, measure func() []float64) []float64 {
	var cols [][]float64
	deadline := time.Now().Add(budget)
	for reps := 0; reps < minReps || time.Now().Before(deadline); reps++ {
		vals := measure()
		if cols == nil {
			cols = make([][]float64, len(vals))
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
	}
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = median(c)
	}
	return out
}

// perCall returns the median nanoseconds per call of fn, timed in
// batches.
func perCall(budget time.Duration, batch int, fn func()) float64 {
	return repeated(budget, 5, func() []float64 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		return []float64{float64(time.Since(t0)) / float64(batch)}
	})[0]
}

// allocsPerCall returns the heap objects one call of fn allocates,
// averaged over reps calls on this goroutine.
func allocsPerCall(reps int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// runLadder measures the per-layer micro metrics for the workload of
// in, spending about budget in total.
func runLadder(in *instance, budget time.Duration) (map[string]float64, error) {
	const rungs = 18
	slice := budget / rungs
	m := make(map[string]float64)
	ctx := context.Background()
	db := in.dbs[0]
	key := in.keys[len(in.keys)/2]
	arity := len(key.lists)

	// The bare engine: static lists, no cache, no scheduler.
	subs := make([]fuzzydb.Subsystem, db.M())
	for i := range subs {
		ss := fuzzydb.NewStaticSubsystem(listName(i), db.N())
		ss.Set("*", db.List(i))
		subs[i] = ss
	}
	eng, err := fuzzydb.NewEngine(subs)
	if err != nil {
		return nil, err
	}
	plan, err := eng.PlanQuery(key.node)
	if err != nil {
		return nil, err
	}
	raw := make([]subsys.Source, arity)
	for i, l := range key.lists {
		raw[i] = subsys.FromList(db.List(l))
	}

	// gradedset: replay the access pattern of one evaluation against
	// the bare lists.
	log := &accessLog{}
	logged := make([]subsys.Source, arity)
	lt := newTracer(0)
	for i, src := range raw {
		p := newSourceProbe(lt)
		p.log, p.list = log, key.lists[i]
		logged[i] = traceSource(src, p)
	}
	if _, _, err := core.Evaluate(ctx, plan.Algorithm, logged, plan.Agg, key.k); err != nil {
		return nil, err
	}
	var ranges, grades []access
	entries := 0
	for _, a := range log.ops {
		if a.Random {
			grades = append(grades, a)
		} else {
			ranges = append(ranges, a)
			entries += a.Hi - a.Lo
		}
	}
	if entries > 0 {
		ns := perCall(slice, 1, func() {
			for _, a := range ranges {
				for _, e := range db.List(a.List).Range(a.Lo, a.Hi) {
					sink += e.Grade
				}
			}
		})
		m["gradedset.range_ns_per_entry"] = ns / float64(entries)
	}
	if len(grades) > 0 {
		ns := perCall(slice, 1, func() {
			for _, a := range grades {
				g, _ := db.List(a.List).Grade(a.Obj)
				sink += g
			}
		})
		m["gradedset.grade_ns"] = ns / float64(len(grades))
	}
	l0 := db.List(key.lists[0])
	obj := 0
	m["gradedset.updated_us"] = perCall(slice, 4, func() {
		obj = (obj + 7919) % db.N()
		nl, _ := l0.Updated(obj, 0.5)
		sink += float64(nl.Len())
	}) / 1e3

	// subsys: the metering wrapper's memo, and a mutable update.
	const probes = 1024
	hm := repeated(slice, 5, func() []float64 {
		c := subsys.Count(raw[0])
		t0 := time.Now()
		for o := 0; o < probes; o++ {
			sink += c.Grade(o)
		}
		t1 := time.Now()
		for o := 0; o < probes; o++ {
			sink += c.Grade(o)
		}
		t2 := time.Now()
		c.Release()
		return []float64{float64(t1.Sub(t0)) / probes, float64(t2.Sub(t1)) / probes}
	})
	m["subsys.counted_grade_miss_ns"], m["subsys.counted_grade_hit_ns"] = hm[0], hm[1]
	mut := fuzzydb.NewMutableSubsystem("M", db.N())
	mut.Set("*", l0)
	updates := 0
	m["subsys.update_us"] = perCall(slice, 4, func() {
		obj = (obj + 7919) % db.N()
		updates++
		// A grade no earlier update used, so none is a no-op.
		_ = mut.UpdateGrade("*", obj, 0.1+0.8*float64(updates%100003)/100003)
	}) / 1e3

	// agg: the kernel at the workload's arity.
	vec := make([]float64, arity)
	for i := range vec {
		vec[i] = 0.9 - 0.1*float64(i)
	}
	m["agg.apply_ns"] = perCall(slice, 4096, func() { sink += plan.Agg.Apply(vec) })

	// core, middleware, cache: the planner's algorithm over the bare
	// lists, the bare engine, and a cached engine made to miss. These
	// rungs are subtracted from one another, so they are timed in turn
	// inside one loop: a slow stretch of the machine hits all alike.
	var s, r int
	evaluate := func(opts ...core.EvalOption) func() {
		return func() {
			res, c, err := core.Evaluate(ctx, plan.Algorithm, raw, plan.Agg, key.k, opts...)
			if err == nil {
				sink += res[0].Grade
				s, r = c.Sorted, c.Random
			}
		}
	}
	ask := func(eng *fuzzydb.Engine) func() {
		return func() {
			rep, err := eng.Query(ctx, key.node, fuzzydb.TopN(key.k))
			if err == nil {
				sink += rep.Results[0].Grade
			}
		}
	}
	ceng, err := fuzzydb.NewEngine(subs, fuzzydb.WithCache(8))
	if err != nil {
		return nil, err
	}
	bare, cached := ask(eng), ask(ceng)
	twice := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		fn()
		return float64(time.Since(t0)) / 2
	}
	ns := repeated(4*slice, 5, func() []float64 {
		ev, q := twice(evaluate()), twice(bare)
		ceng.Invalidate()
		t0 := time.Now()
		cached()
		return []float64{ev, q, float64(time.Since(t0))}
	})
	m["core.evaluate_us"], m["middleware.query_us"] = ns[0]/1e3, ns[1]/1e3
	m["middleware.plan_us"] = perCall(slice, 256, func() {
		p, _ := eng.PlanQuery(key.node)
		if p != nil {
			sink++
		}
	}) / 1e3
	m["middleware.overhead_us"] = m["middleware.query_us"] - m["core.evaluate_us"] - m["middleware.plan_us"]
	m["cache.miss_overhead_us"] = ns[2]/1e3 - m["middleware.query_us"]
	m["cache.hit_us"] = perCall(slice, 256, cached) / 1e3
	m["core.evaluate_allocs"] = allocsPerCall(16, evaluate())
	m["middleware.query_allocs"] = allocsPerCall(16, bare)
	m["middleware.overhead_allocs"] = m["middleware.query_allocs"] - m["core.evaluate_allocs"]
	m["core.sorted_per_query"], m["core.random_per_query"] = float64(s), float64(r)
	m["core.accesses_per_result"] = float64(s+r) / float64(key.k)

	// core under the other executors.
	m["core.concurrent_us"] = perCall(slice, 4, evaluate(core.WithExecutor(core.Concurrent{P: arity}))) / 1e3
	m["core.pipelined_us"] = perCall(slice, 4, evaluate(core.WithExecutor(core.Pipelined{}))) / 1e3
	m["core.sharded2_us"] = perCall(slice, 4, func() {
		sr, err := core.EvaluateSharded(ctx, plan.Algorithm, raw, plan.Agg, key.k, core.ShardConfig{Shards: 2})
		if err == nil {
			sink += sr.Results[0].Grade
		}
	}) / 1e3
	if in.s.name != wRemoteSources {
		// remote_sources reads these off its own pipelined requests.
		var batches, stalls float64
		const n = 8
		for i := 0; i < n; i++ {
			rep, err := eng.Query(ctx, key.node, fuzzydb.TopN(key.k), fuzzydb.WithPrefetch(0))
			if err != nil {
				return nil, err
			}
			if rep.Prefetch != nil {
				batches += float64(rep.Prefetch.Batches)
				stalls += float64(rep.Prefetch.Stalls)
			}
		}
		m["core.prefetch_batches_per_query"], m["core.prefetch_stalls_per_query"] = batches/n, stalls/n
	}

	m["query.parse_us"] = perCall(slice, 256, func() {
		n, _ := query.Parse(key.text)
		if n != nil {
			sink++
		}
	}) / 1e3

	// sched: one uncontended admission and settlement.
	sc := fuzzydb.NewScheduler(schedulerConfig())
	m["sched.acquire_settle_us"] = perCall(slice, 1024, func() {
		g, err := sc.Acquire(ctx, tenants[0])
		if err == nil {
			g.Settle(256)
		}
	}) / 1e3
	return m, nil
}
