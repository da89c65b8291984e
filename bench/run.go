package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// protocol is the run plan: which passes run and for how long.
type protocol struct {
	seed     uint64
	smoke    bool
	endToEnd bool // set-up repeats and the timed pass
	layers   bool // the traced pass and the ladder
	setUps   int  // set-ups timed per workload (the last one is kept)
	warmUp   time.Duration
	rounds   int
	roundLen time.Duration
	ladder   time.Duration // ladder budget per workload
	traceDir string        // where trace-<workload>.json goes; "" = nowhere
}

func (p protocol) String() string {
	s := "verify pass"
	if p.endToEnd {
		s += fmt.Sprintf(", timed pass: %v warm-up + %d rounds x %v per workload, rounds interleaved across workloads", p.warmUp, p.rounds, p.roundLen)
	}
	if p.layers {
		s += fmt.Sprintf(", traced pass + %v ladder", p.ladder)
	}
	return s
}

// check is one pass/fail verdict a run reports besides its numbers.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadResult is everything one run measured on one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Rounds    []roundStats       `json:"rounds,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Correct   bool               `json:"correct"`
}

// digest is the part of one step's outcome that the traced pass must
// reproduce: what was spent, how it was planned, what was answered.
type digest struct {
	sorted, random int
	hit, failed    bool
	algorithm      string
	answers        uint64
}

func digestOf(records []record) []digest {
	out := make([]digest, len(records))
	for i, r := range records {
		h := fnv.New64a()
		var buf [16]byte
		for _, a := range r.out.answers() {
			binary.LittleEndian.PutUint64(buf[:8], uint64(a.Object))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(a.Grade))
			h.Write(buf[:])
		}
		out[i] = digest{sorted: r.out.sorted, random: r.out.random, hit: r.out.hit, failed: r.err != nil,
			algorithm: r.out.algorithm, answers: h.Sum64()}
	}
	return out
}

// sameDigests reports the first step at which two passes over the same
// sequence differ.
func sameDigests(a, b []digest) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("step %d: untraced %+v, traced %+v", i, a[i], b[i])
		}
	}
	return nil
}

// heapLive returns the live heap. It collects twice: what the first
// cycle drops from sync.Pools survives in their victim caches until
// the second, and how full the pools were depends on timing.
func heapLive() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// running is one workload's state across the passes of a run.
type running struct {
	s      spec
	res    *workloadResult
	in     *instance
	seq    []seqOp
	gens   *[clients]*opGen
	verify *passStats
	digest []digest
	rounds []roundStats
}

// run executes the protocol over the given workloads and returns one
// result per workload. Progress goes to log.
func run(p protocol, ss []spec, log io.Writer) ([]workloadResult, error) {
	states := make([]*running, len(ss))
	defer func() {
		for _, st := range states {
			if st != nil && st.in != nil {
				_ = st.in.close()
			}
		}
	}()

	// Set-up and verify pass, one workload at a time.
	for i, s := range ss {
		st := &running{s: s, res: &workloadResult{Name: s.name, Why: s.why, EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}}
		states[i] = st
		base := heapLive()
		var setUps []float64
		for r := 0; r < p.setUps; r++ {
			if st.in != nil {
				if err := st.in.close(); err != nil {
					return nil, fmt.Errorf("%s: tear-down: %w", s.name, err)
				}
			}
			t0 := time.Now()
			in, err := setUp(s, p.seed, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
			}
			setUps = append(setUps, time.Since(t0).Seconds())
			st.in = in
		}
		st.seq, st.gens = fixedSequence(s, p.seed, s.verifyOps)
		ps := runSequence(st.in, st.seq)
		st.verify = ps
		mismatches, first := judge(st.in, st.seq, ps.records)
		st.res.Checks = append(st.res.Checks, checkOf("oracle", first))
		st.digest = digestOf(ps.records)
		ps.latMS = ps.queryLatenciesMS(st.seq)
		ps.records = nil
		st.in.quiesce()
		live := heapLive()
		st.res.Attempted += len(st.seq)
		st.res.Failed += ps.errors + mismatches
		if p.endToEnd {
			q := float64(ps.queries)
			e := st.res.EndToEnd
			e["setup_s"] = summarize(setUps)
			e["access_cost_per_query"] = exact(float64(ps.cost) / q)
			e["allocs_per_query"] = exact(float64(ps.mallocs) / q)
			e["alloc_kb_per_query"] = exact(float64(ps.allocBytes) / 1e3 / q)
			e["heap_live_mb"] = exact((float64(live) - float64(base)) / 1e6)
		}
		fmt.Fprintf(log, "%-15s verify: %d ops in %.2fs, %d errors, %d wrong answers, cost/query %.1f\n",
			s.name, len(st.seq), float64(ps.wallNS)/1e9, ps.errors, mismatches, float64(ps.cost)/float64(ps.queries))
	}

	// Timed pass: rounds interleaved round-robin across the workloads,
	// so a noisy stretch of a shared machine lands on one round of each.
	if p.endToEnd {
		for _, st := range states {
			timedRound(st.in, st.gens, p.warmUp)
		}
		for r := 0; r < p.rounds; r++ {
			for _, st := range states {
				rs := timedRound(st.in, st.gens, p.roundLen)
				st.rounds = append(st.rounds, rs)
				st.res.Attempted += rs.Attempted
				st.res.Failed += rs.Failed
				fmt.Fprintf(log, "%-15s round %d: p50 %.4f ms, p95 %.4f ms, %.1f q/s, %d samples, %d failed\n",
					st.s.name, r+1, rs.P50ms, rs.P95ms, rs.QPS, rs.Samples, rs.Failed)
			}
		}
		for _, st := range states {
			var p50, p95, qps []float64
			thin := false
			for _, rs := range st.rounds {
				p50, p95, qps = append(p50, rs.P50ms), append(p95, rs.P95ms), append(qps, rs.QPS)
				thin = thin || samplesBeyond(rs.Samples, 0.95) < 10
			}
			e := st.res.EndToEnd
			e["latency_p50_ms"], e["latency_p95_ms"], e["throughput_qps"] = summarize(p50), summarize(p95), summarize(qps)
			st.res.Rounds = st.rounds
			if thin && !p.smoke {
				fmt.Fprintf(log, "%-15s note: a round had fewer than 10 samples beyond its p95\n", st.s.name)
			}
		}
	}

	// Traced pass and ladder, one workload at a time. The untraced
	// instance is closed first: only one deployment of a workload is
	// alive while its layers are measured.
	if p.layers {
		for _, st := range states {
			if err := st.in.close(); err != nil {
				return nil, fmt.Errorf("%s: tear-down: %w", st.s.name, err)
			}
			if err := tracedPass(p, st, log); err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", st.s.name, err)
			}
		}
	}
	out := make([]workloadResult, len(states))
	for i, st := range states {
		if err := st.in.close(); err != nil {
			return nil, fmt.Errorf("%s: tear-down: %w", st.s.name, err)
		}
		st.in = nil
		st.res.Correct = st.res.Failed == 0
		for _, c := range st.res.Checks {
			st.res.Correct = st.res.Correct && c.OK
		}
		out[i] = *st.res
	}
	return out, nil
}

// tracedPass replays the verify pass's exact sequence on a fresh
// deployment with the tracing wrappers installed, checks that tracing
// changed nothing the engine reports, derives the per-layer metrics,
// and runs the ladder.
func tracedPass(p protocol, st *running, log io.Writer) (err error) {
	tr := newTracer(len(st.seq))
	tin, err := setUp(st.s, p.seed, tr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := tin.close(); err == nil {
			err = cerr
		}
	}()
	var rpc0 rpcSnapshot
	if tin.rt != nil {
		rpc0 = tin.rt.stats.snapshot() // excludes the dial's meta fetch
	}
	tps := runSequence(tin, st.seq)
	st.res.Attempted += len(st.seq)
	st.res.Failed += tps.errors
	st.res.Checks = append(st.res.Checks, checkOf("traced_identical", sameDigests(st.digest, digestOf(tps.records))))
	tps.latMS = tps.queryLatenciesMS(st.seq)

	lm := layerMetrics(tin, st.seq, tps, st.verify, rpc0)
	for name, v := range lm.values {
		st.res.PerLayer[name] = v
	}
	st.res.Checks = append(st.res.Checks, lm.checks...)

	ladder, err := runLadder(tin, p.ladder)
	if err != nil {
		return err
	}
	for name, v := range ladder {
		st.res.PerLayer[name] = v
	}
	// Every per-layer metric is reported on every workload; a layer
	// that is not on a workload's path reads 0 there.
	for _, d := range perLayerMetrics {
		if _, ok := st.res.PerLayer[d.Name]; !ok {
			st.res.PerLayer[d.Name] = 0
		}
	}
	if p.traceDir != "" {
		if err := os.MkdirAll(p.traceDir, 0o755); err != nil {
			return err
		}
		if err := tr.writeSampled(filepath.Join(p.traceDir, "trace-"+st.s.name+".json")); err != nil {
			return err
		}
	}
	fmt.Fprintf(log, "%-15s traced: overhead x%.2f, %d spans kept\n", st.s.name, lm.values["trace.overhead_ratio"], len(tr.snapshot()))
	return nil
}
