package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"fuzzydb"

	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// TestLocalAndRemoteReportsPrintAlike: the local path (Report lowered by
// wire.ResponseOf) and the -connect path (the response a server sent)
// print from one shape, so for the same query over the same data the two
// reports differ only in how objects are named, in the wall-clocks, and
// in the remote report's final server-side line.
func TestLocalAndRemoteReportsPrintAlike(t *testing.T) {
	db := scoredb.Generator{N: 600, M: 2, Seed: 5}.MustGenerate()
	lists := make(map[string]subsys.Source, db.M())
	subs := make([]fuzzydb.Subsystem, db.M())
	names := make([]string, db.N())
	for i := range names {
		names[i] = fmt.Sprintf("album-%d", i)
	}
	for i := range subs {
		attr := fmt.Sprintf("A%d", i+1)
		lists[attr] = subsys.FromList(db.List(i))
		s := fuzzydb.NewStaticSubsystem(attr, db.N())
		s.Set("*", db.List(i))
		subs[i] = s
	}
	eng, err := fuzzydb.NewEngine(subs, fuzzydb.WithObjectNames(names))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := wire.NewSourceServer(lists, wire.WithEngine())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	ss.Register(mux)
	wire.NewQueryServer(eng).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Sequential shards: the per-shard lines are then deterministic.
	const q = `A1 = "*" AND A2 = "*"`
	start := time.Now()
	rep, err := eng.QueryString(context.Background(), q, fuzzydb.TopN(4), fuzzydb.WithShards(3), fuzzydb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var local bytes.Buffer
	printReport(&local, wire.ResponseOf(rep, elapsed), eng.Name, run{query: q, universe: eng.N(), repeat: 1, elapsed: elapsed})

	var remote bytes.Buffer
	if code := runRemote(&remote, ts.URL, q, remoteFlags{k: 4, shards: 3, parallel: 1, prefetch: -1, repeat: 1, shardPlan: "even"}); code != 0 {
		t.Fatalf("runRemote exited %d:\n%s", code, remote.String())
	}

	if !strings.Contains(local.String(), "album-") || !strings.Contains(local.String(), "sharded over 3 universe slices") {
		t.Fatalf("local report lacks names or shard lines:\n%s", local.String())
	}
	clock := regexp.MustCompile(`wall-clock \S+`)
	named := regexp.MustCompile(`album-(\d+) *`)
	anon := regexp.MustCompile(`#(\d+) *`)
	got := anon.ReplaceAllString(clock.ReplaceAllString(remote.String(), "wall-clock T"), "obj$1 ")
	want := named.ReplaceAllString(clock.ReplaceAllString(local.String(), "wall-clock T"), "obj$1 ")
	last := regexp.MustCompile(`server-side evaluation: \S+\n$`)
	if !last.MatchString(got) {
		t.Fatalf("remote report does not end with the server-side line:\n%s", got)
	}
	if got = last.ReplaceAllString(got, ""); got != want {
		t.Errorf("reports differ beyond names, clocks and the server-side line:\n--- remote\n%s--- local\n%s", got, want)
	}
}

// TestConnectConflictNamesFirstFlagInDeclarationOrder: with several
// local-only flags set beside -connect, the one named is the first as
// the flags are declared, on every run — it used to follow a map's
// iteration order.
func TestConnectConflictNamesFirstFlagInDeclarationOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		if got := connectConflict("db.json", time.Millisecond, 0.05, 7, 2, 8); got != "-db" {
			t.Fatalf("run %d: all six set: named %q, want -db", i, got)
		}
		if got := connectConflict("", time.Millisecond, 0, 1, 0, 8); got != "-latency" {
			t.Fatalf("run %d: -latency and -cache set: named %q, want -latency", i, got)
		}
		if got := connectConflict("", 0, 0, 7, 2, 0); got != "-fault-seed" {
			t.Fatalf("run %d: -fault-seed and -retries set: named %q, want -fault-seed", i, got)
		}
	}
	if got := connectConflict("", 0, 0, 1, 0, 0); got != "" {
		t.Errorf("defaults: named %q, want none", got)
	}
}
