package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// seqOp is one step of a fixed sequence: which client issues which op.
type seqOp struct {
	client int
	op     op
}

// fixedSequence returns the first n operations of the clients' streams
// interleaved c0, c1, c0, …, and the generators positioned after them
// (the timed pass carries on from there).
func fixedSequence(s spec, seed uint64, n int) ([]seqOp, *[clients]*opGen) {
	var gens [clients]*opGen
	for c := range gens {
		gens[c] = newOpGen(s, seed, c)
	}
	seq := make([]seqOp, n)
	for i := range seq {
		c := i % clients
		seq[i] = seqOp{client: c, op: gens[c].next()}
	}
	return seq, &gens
}

// record is one executed step of a fixed sequence.
type record struct {
	out   outcome
	err   error
	latNS int64
}

// passStats is everything a pass over a fixed sequence measured.
type passStats struct {
	records []record
	queries int
	writes  int
	errors  int

	cost, sorted, random int64 // accesses actually spent
	hits                 int   // requests served from the result cache
	batches, stalls      int64 // prefetch pipeline totals

	mallocs, allocBytes uint64 // process-wide, over the pass
	gcCycles            uint32
	cpuNS, wallNS       int64

	latMS []float64 // sorted query latencies, kept after records are dropped
}

func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runSequence executes a fixed sequence from one driver goroutine, so
// every count it yields is exact and repeatable. Responses are recorded
// and judged later, off the clock. A traced instance gets one request
// span per step.
func runSequence(in *instance, seq []seqOp) *passStats {
	ps := &passStats{records: make([]record, len(seq))}
	var reqAgg *nameAgg
	if in.tr != nil {
		reqAgg = in.tr.agg(spanRequest)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0, wall0 := cpuTimeNS(), time.Now()
	for i, so := range seq {
		ctx := context.Background()
		var sc spanCtx
		var start int64
		if in.tr != nil {
			sc, start = in.tr.root(i + 1)
			ctx = withSpan(ctx, sc)
		}
		t0 := time.Now()
		out, err := in.exec(ctx, so.client, so.op)
		lat := time.Since(t0)
		if in.tr != nil {
			in.tr.end(reqAgg, spanRequest, sc, 0, start, true)
		}
		ps.records[i] = record{out: out, err: err, latNS: int64(lat)}
	}
	ps.wallNS, ps.cpuNS = int64(time.Since(wall0)), cpuTimeNS()-cpu0
	runtime.ReadMemStats(&after)
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.allocBytes = after.TotalAlloc - before.TotalAlloc
	ps.gcCycles = after.NumGC - before.NumGC

	for i, r := range ps.records {
		if seq[i].op.write {
			ps.writes++
		} else {
			ps.queries++
		}
		if r.err != nil {
			ps.errors++
			continue
		}
		ps.cost += int64(r.out.cost())
		ps.sorted += int64(r.out.sorted)
		ps.random += int64(r.out.random)
		ps.batches += int64(r.out.batches)
		ps.stalls += int64(r.out.stalls)
		if r.out.hit {
			ps.hits++
		}
	}
	return ps
}

// queryLatenciesMS returns the sorted latencies of the pass's queries.
func (ps *passStats) queryLatenciesMS(seq []seqOp) []float64 {
	var ms []float64
	for i, r := range ps.records {
		if !seq[i].op.write && r.err == nil {
			ms = append(ms, float64(r.latNS)/1e6)
		}
	}
	sort.Float64s(ms)
	return ms
}

// judge replays the sequence against the brute-force oracle — writes
// onto the shadow matrix, queries checked against it — and returns the
// number of wrong answers with a description of the first.
func judge(in *instance, seq []seqOp, records []record) (mismatches int, first error) {
	oracles := make([]*oracle, len(in.dbs))
	for d, db := range in.dbs {
		oracles[d] = newOracle(db)
	}
	for i, so := range seq {
		if records[i].err != nil {
			continue // counted as an error already
		}
		if so.op.write {
			oracles[so.op.db].write(so.op.list, so.op.obj, so.op.grade)
			continue
		}
		key := in.keys[so.op.key]
		if err := oracles[so.op.db].check(key.lists, key.k, records[i].out.answers()); err != nil {
			mismatches++
			if first == nil {
				first = fmt.Errorf("step %d (db %d, lists %v, k=%d): %w", i, so.op.db, key.lists, key.k, err)
			}
		}
	}
	return mismatches, first
}

// timedRound runs the closed loop for dur: each client issues its next
// operation as soon as the previous one returned. Only queries are
// latency samples; writes run (and count as attempted) but are not
// timed.
func timedRound(in *instance, gens *[clients]*opGen, dur time.Duration) roundStats {
	var (
		wg        sync.WaitGroup
		lat       [clients][]int64
		attempted [clients]int
		failed    [clients]int
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			samples := make([]int64, 0, 4096)
			for time.Now().Before(deadline) {
				o := gens[c].next()
				t0 := time.Now()
				_, err := in.exec(ctx, c, o)
				d := time.Since(t0)
				attempted[c]++
				switch {
				case err != nil:
					failed[c]++
				case !o.write:
					samples = append(samples, int64(d))
				}
			}
			lat[c] = samples
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []int64
	att, bad := 0, 0
	for c := range lat {
		all = append(all, lat[c]...)
		att, bad = att+attempted[c], bad+failed[c]
	}
	return reduceRound(all, int64(wall), att, bad)
}
