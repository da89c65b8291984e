package main

import (
	"fmt"
	"math"
	"sort"
)

// rpcSnapshot is the tracing transport's counters at one instant.
type rpcSnapshot struct {
	rpcs, entries, grades, reqBytes, respBytes int64
}

func (s *rpcStats) snapshot() rpcSnapshot {
	return rpcSnapshot{rpcs: s.rpcs.Load(), entries: s.entries.Load(), grades: s.grades.Load(),
		reqBytes: s.reqBytes.Load(), respBytes: s.respBytes.Load()}
}

// layerOutcome is what the traced pass yields: per-layer metric values
// and the attribution checks.
type layerOutcome struct {
	values map[string]float64
	checks []check
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of one traced pass. tin is
// the traced deployment, traced its pass, untraced the verify pass over
// the same sequence.
func layerMetrics(tin *instance, seq []seqOp, traced, untraced *passStats, rpc0 rpcSnapshot) layerOutcome {
	v := make(map[string]float64)
	var out layerOutcome
	out.values = v
	tr := tin.tr
	q := float64(traced.queries)

	// subsys: what the engine asked of its sources.
	eCalls, eNS := tr.total(spanSrcEntries)
	gCalls, gNS := tr.total(spanSrcGrade)
	v["subsys.sorted_calls_per_query"] = float64(eCalls) / q
	v["subsys.sorted_entries_per_call"] = ratio(float64(tin.probe.ranks.Load()), float64(eCalls))
	v["subsys.random_calls_per_query"] = float64(gCalls) / q
	v["subsys.random_calls_per_access"] = ratio(float64(gCalls), float64(traced.random))
	v["subsys.source_busy_us_per_query"] = float64(eNS+gNS) / 1e3 / q

	if tin.s.name == wRemoteSources {
		v["core.prefetch_batches_per_query"] = float64(traced.batches) / q
		v["core.prefetch_stalls_per_query"] = float64(traced.stalls) / q
	}

	// cache: the engines' own counters over the sequence.
	var hits, misses, evictions, invalidations uint64
	for _, eng := range tin.engines {
		if cs, ok := eng.CacheStats(); ok {
			hits, misses = hits+cs.Hits, misses+cs.Misses
			evictions, invalidations = evictions+cs.Evictions, invalidations+cs.Invalidations
		}
	}
	v["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["cache.evictions_per_kq"] = float64(evictions) / q * 1e3
	v["cache.invalidations_per_write"] = ratio(float64(invalidations), float64(traced.writes))
	var disagree error
	if int(hits) != traced.hits {
		disagree = fmt.Errorf("the engines counted %d hits, their reports said %d", hits, traced.hits)
	}
	out.checks = append(out.checks, checkOf("cache_counters_agree", disagree))

	// sched: nothing may be shed.
	var admitted, shed int64
	for _, ts := range tin.sched.Stats() {
		admitted, shed = admitted+ts.Admitted, shed+ts.Shed
	}
	v["sched.shed_ratio"] = ratio(float64(shed), float64(admitted+shed))

	// wire: spans of the client call, the round trips and the server
	// handler, per request.
	spans := tr.snapshot()
	self := selfTimes(spans)
	var clientSelf, transportSelf, serverNS, requestNS, blockedNS int64
	var rpcUS []float64
	window := make(map[uint64]interval) // request span per request
	trips := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Request == 0 {
			continue // set-up traffic, before the sequence
		}
		switch s.Name {
		case spanRequest:
			window[s.Request] = interval{s.Start, s.End}
			if !seq[s.Request-1].op.write {
				requestNS += s.End - s.Start
			}
		case spanClient:
			clientSelf += self[s.ID]
		case spanRoundTrip:
			transportSelf += self[s.ID]
			rpcUS = append(rpcUS, float64(s.End-s.Start)/1e3)
			trips[s.Request] = append(trips[s.Request], interval{s.Start, s.End})
		case spanServer:
			serverNS += s.End - s.Start
		}
	}
	for r, ivs := range trips {
		w := window[r]
		blockedNS += unionLength(ivs, w.lo, w.hi)
	}
	var engineNS int64
	for _, r := range traced.records {
		engineNS += r.out.engineNS
	}
	// What the handler's time is measured against: the server's own
	// evaluation clock where there is one (/v1/query), otherwise the
	// time its sources were busy (source RPCs).
	inner := engineNS
	if tin.s.name == wRemoteSources {
		inner = eNS + gNS
	}
	if tin.rt != nil {
		st := tin.rt.stats
		now := st.snapshot()
		v["wire.client_self_us"] = float64(clientSelf) / 1e3 / q
		v["wire.transport_self_us"] = float64(transportSelf) / 1e3 / q
		v["wire.server_codec_self_us"] = float64(serverNS-inner) / 1e3 / q
		v["wire.engine_us"] = float64(engineNS) / 1e3 / q
		v["wire.rpcs_per_query"] = float64(now.rpcs-rpc0.rpcs) / q
		v["wire.entries_rpcs_per_query"] = float64(now.entries-rpc0.entries) / q
		v["wire.grade_rpcs_per_query"] = float64(now.grades-rpc0.grades) / q
		v["wire.req_bytes_per_query"] = float64(now.reqBytes-rpc0.reqBytes) / q
		v["wire.resp_bytes_per_query"] = float64(now.respBytes-rpc0.respBytes) / q
		sort.Float64s(rpcUS)
		v["wire.rpc_p50_us"] = percentile(rpcUS, 0.5)
		v["wire.inflight_max"] = float64(st.inflightMax.Load())
		v["wire.blocked_on_rpc_ratio"] = ratio(float64(blockedNS), float64(requestNS))
	}

	// process: CPU and GC of the untraced pass, and what tracing costs.
	uq := float64(untraced.queries)
	v["proc.cpu_ms_per_query"] = float64(untraced.cpuNS) / 1e6 / uq
	v["proc.gc_cycles_per_kq"] = float64(untraced.gcCycles) / uq * 1e3
	v["trace.overhead_ratio"] = ratio(percentile(traced.latMS, 0.5), percentile(untraced.latMS, 0.5))

	// Attribution checks.
	if tin.s.name == wServeHot {
		// A request the server answered from its cache must not have
		// touched a source.
		var bad error
		for i, r := range traced.records {
			if r.out.hit && tr.srcCalls[i+1].Load() != 0 && bad == nil {
				bad = fmt.Errorf("step %d was a cache hit yet made %d source calls", i, tr.srcCalls[i+1].Load())
			}
		}
		out.checks = append(out.checks, checkOf("hit_touches_no_source", bad))
		// The four wire shares must account for the request span.
		sum := float64(clientSelf + transportSelf + serverNS)
		var gap error
		if d := math.Abs(sum-float64(requestNS)) / float64(requestNS); d > 0.05 {
			gap = fmt.Errorf("client+transport+codec+engine = %.0f ns, request spans = %d ns (%.1f%% apart)", sum, requestNS, 100*d)
		}
		out.checks = append(out.checks, checkOf("wire_shares_account_for_request", gap))
	}
	return out
}

func checkOf(name string, err error) check {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	return c
}
