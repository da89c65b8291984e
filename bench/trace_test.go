package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"fuzzydb"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 20},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 30},
		{"nested", []interval{{10, 50}, {20, 30}}, 40},
		{"unordered", []interval{{30, 40}, {10, 20}, {15, 35}}, 30},
		{"clipped", []interval{{-10, 5}, {95, 200}}, 10},
		{"outside", []interval{{200, 300}}, 0},
	} {
		if got := unionLength(tc.ivs, 0, 100); got != tc.want {
			t.Errorf("%s: union = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Self time subtracts the union of the children, not their sum: two
// overlapping round trips under one query cover 30 ns of it, not 40.
func TestSelfTimeByIntervalUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRequest, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanQuery, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanRoundTrip, Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: spanRoundTrip, Start: 30, End: 50},
		{ID: 5, Parent: 3, Name: spanServer, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 20, 2: 50, 3: 10, 4: 20, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// The tracing wrappers must be invisible to the engine: every optional
// capability the engine probes for is still there, and what the engine
// spends, plans and answers is the same with and without them.
func TestTracingForwardsCapabilities(t *testing.T) {
	var (
		_ subsys.UniverseHinter = (*tracedSource)(nil)
		_ subsys.ContextSource  = boundSource{}
		_ subsys.FallibleSource = fallibleSource{}
		_ subsys.Versioned      = (*tracedSubsystem)(nil)
		_ subsys.GradeSketcher  = (*tracedSubsystem)(nil)
	)
	// The shared server-side form must not take per-request bindings.
	if _, ok := any(&tracedSource{}).(subsys.ContextSource); ok {
		t.Error("tracedSource implements ContextSource; wire.SourceServer would bind concurrent requests into one instance")
	}

	db := scoredb.Generator{N: 1500, M: 3, Law: scoredb.Uniform{}, Seed: 11}.MustGenerate()
	ctx := context.Background()
	node := specs(true)[0].keys()[0].node // A01 AND A02 AND A03

	type outcome struct {
		sorted, random int
		algorithm      string
		results        []fuzzydb.Result
		hit            bool
	}
	ask := func(eng *fuzzydb.Engine, opts ...fuzzydb.QueryOption) outcome {
		t.Helper()
		rep, err := eng.Query(ctx, node, append([]fuzzydb.QueryOption{fuzzydb.TopN(7)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rep.Cost.Sorted, rep.Cost.Random, rep.Plan.Algorithm.Name(), rep.Results, rep.Cache != nil && rep.Cache.Hit}
	}
	same := func(what string, a, b outcome) {
		t.Helper()
		if a.sorted != b.sorted || a.random != b.random || a.algorithm != b.algorithm || a.hit != b.hit || len(a.results) != len(b.results) {
			t.Fatalf("%s: bare %+v, traced %+v", what, a, b)
		}
		for i := range a.results {
			if a.results[i] != b.results[i] {
				t.Fatalf("%s: rank %d: bare %v, traced %v", what, i, a.results[i], b.results[i])
			}
		}
	}

	// Versioned + GradeSketcher: mutable lists under a cache, with
	// sketch-weighted sharding and a write between two queries.
	build := func(tr *tracer) (*fuzzydb.Engine, *fuzzydb.MutableSubsystem) {
		subs := make([]fuzzydb.Subsystem, db.M())
		var first *fuzzydb.MutableSubsystem
		for i := range subs {
			ms := fuzzydb.NewMutableSubsystem(listName(i), db.N())
			ms.Set("*", db.List(i))
			if i == 0 {
				first = ms
			}
			subs[i] = ms
		}
		if tr != nil {
			subs = traceSubsystems(subs, newSourceProbe(tr))
		}
		eng, err := fuzzydb.NewEngine(subs, fuzzydb.WithCache(4))
		if err != nil {
			t.Fatal(err)
		}
		return eng, first
	}
	tr := newTracer(0)
	bare, bareList := build(nil)
	traced, tracedList := build(tr)
	weighted := []fuzzydb.QueryOption{fuzzydb.WithShards(2), fuzzydb.WithShardPlan(fuzzydb.ShardPlanWeighted), fuzzydb.WithParallelism(1)}
	same("first query", ask(bare), ask(traced))
	same("repeat is a hit", ask(bare), ask(traced))
	same("weighted shards", ask(bare, weighted...), ask(traced, weighted...))
	for _, l := range []*fuzzydb.MutableSubsystem{bareList, tracedList} {
		if err := l.UpdateGrade("*", 5, 0.99999); err != nil {
			t.Fatal(err)
		}
	}
	same("after a raise", ask(bare), ask(traced))
	for _, l := range []*fuzzydb.MutableSubsystem{bareList, tracedList} {
		if err := l.UpdateGrade("*", 6, 0.0001); err != nil {
			t.Fatal(err)
		}
	}
	same("after a survivable write", ask(bare), ask(traced))
	if n, _ := tr.total(spanSrcGrade); n == 0 {
		t.Error("the traced engine's sources recorded no random access")
	}

	// UniverseHinter + FallibleSource + ContextSource: wire-backed
	// sources, pipelined.
	lists := make(map[string]subsys.Source)
	for i := 0; i < db.M(); i++ {
		lists[listName(i)] = subsys.FromList(db.List(i))
	}
	ss, err := wire.NewSourceServer(lists)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss)
	defer srv.Close()
	client, err := wire.Dial(srv.URL, wire.WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	remote, err := fuzzydb.NewEngine(client.Subsystems())
	if err != nil {
		t.Fatal(err)
	}
	tr2 := newTracer(1)
	remoteTraced, err := fuzzydb.NewEngine(traceSubsystems(client.Subsystems(), newSourceProbe(tr2)))
	if err != nil {
		t.Fatal(err)
	}
	ctx = withSpan(ctx, spanCtx{request: 1, id: 99})
	same("wire-backed, pipelined", ask(remote, fuzzydb.WithPrefetch(0)), ask(remoteTraced, fuzzydb.WithPrefetch(0)))
	same("wire-backed, serial", ask(remote), ask(remoteTraced))
	if tr2.srcCalls[1].Load() == 0 {
		t.Error("the bound request context did not reach the traced remote sources")
	}
	src, err := traceSubsystems(client.Subsystems(), newSourceProbe(tr2))[0].Query("*")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(subsys.FallibleSource); !ok {
		t.Error("a traced remote source lost its fallible face")
	}
	if n, dense := src.(subsys.UniverseHinter).Universe(); !dense || n != db.N() {
		t.Errorf("traced remote source reports universe (%d, %t), want (%d, true)", n, dense, db.N())
	}
}
