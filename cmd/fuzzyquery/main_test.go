package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"fuzzydb"

	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// serveDB is a fuzzyserve-shaped handler over a generated database — the
// source endpoints and an engine with object names on one mux — plus
// that engine, for evaluating the same request in process.
func serveDB(t *testing.T, db *scoredb.Database) (*fuzzydb.Engine, *http.ServeMux) {
	t.Helper()
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
	return eng, mux
}

// TestLocalAndRemoteReportsPrintAlike: the local path (Report lowered by
// wire.ResponseOf) and the -connect path (the response a server sent)
// print from one shape, so for the same query over the same data the two
// reports differ only in how objects are named, in the wall-clocks, and
// in the remote report's final server-side line.
func TestLocalAndRemoteReportsPrintAlike(t *testing.T) {
	db := scoredb.Generator{N: 600, M: 2, Seed: 5}.MustGenerate()
	eng, mux := serveDB(t, db)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Sequential shards: the per-shard lines are then deterministic. One
	// parse of one command line feeds both paths.
	const q = `A1 = "*" AND A2 = "*"`
	var stderr bytes.Buffer
	f, code := parseFlags([]string{"-q", q, "-k", "4", "-shards", "3", "-p", "1", "-connect", ts.URL}, &stderr)
	if f == nil {
		t.Fatalf("parseFlags exited %d: %s", code, stderr.String())
	}
	ctx := context.Background()
	start := time.Now()
	rep, err := eng.Do(ctx, f.req)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var local bytes.Buffer
	printReport(&local, wire.ResponseOf(rep, elapsed), eng.Name, ran{req: f.req, universe: eng.N(), repeat: 1, elapsed: elapsed})

	var remote bytes.Buffer
	if code := runRemote(ctx, &remote, &stderr, f); code != 0 {
		t.Fatalf("runRemote exited %d:\n%s%s", code, remote.String(), stderr.String())
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
	all := flags{dbFile: "db.json", latency: time.Millisecond, faults: faultConfig{rate: 0.05, seed: 7, retries: 2}, cacheSize: 8}
	for i := 0; i < 20; i++ {
		if got := all.connectConflict(); got != "-db" {
			t.Fatalf("run %d: all six set: named %q, want -db", i, got)
		}
		if got := (&flags{latency: time.Millisecond, faults: faultConfig{seed: 1}, cacheSize: 8}).connectConflict(); got != "-latency" {
			t.Fatalf("run %d: -latency and -cache set: named %q, want -latency", i, got)
		}
		if got := (&flags{faults: faultConfig{seed: 7, retries: 2}}).connectConflict(); got != "-fault-seed" {
			t.Fatalf("run %d: -fault-seed and -retries set: named %q, want -fault-seed", i, got)
		}
	}
	if got := (&flags{faults: faultConfig{seed: 1}}).connectConflict(); got != "" {
		t.Errorf("defaults: named %q, want none", got)
	}
}

// TestFlagsBindOneRequest: the command line binds onto one Request, and
// that value — not a second assembly of the same flags — is what either
// path evaluates. For seven request shapes the parsed Request is the
// expected one with and without -connect, and the body POSTed to the
// server is the JSON the previous release's client sent for those flags,
// byte for byte (field order, omitted zeros).
func TestFlagsBindOneRequest(t *testing.T) {
	var posted []byte
	_, mux := serveDB(t, scoredb.Generator{N: 300, M: 2, Seed: 9}.MustGenerate())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			posted, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(posted))
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()
	const q = `A1 = "*" AND A2 = "*"`
	const qJSON = `"query":"A1 = \"*\" AND A2 = \"*\""`
	depth := func(d int) *int { return &d }
	for _, tc := range []struct {
		args  []string
		want  fuzzydb.Request
		body  string
		print string // a line the report must carry, if any
	}{
		{args: []string{"-k", "5"},
			want: fuzzydb.Request{K: 5, Parallelism: 1, Shards: 1},
			body: `{` + qJSON + `,"k":5,"parallelism":1,"shards":1}`},
		// -p alone is the pipelined executor, and says so.
		{args: []string{"-p", "3"},
			want:  fuzzydb.Request{K: 10, Parallelism: 3, Shards: 1},
			body:  `{` + qJSON + `,"k":10,"parallelism":3,"shards":1}`,
			print: "prefetch pipeline:"},
		{args: []string{"-shards", "4", "-p", "1"},
			want: fuzzydb.Request{K: 10, Parallelism: 1, Shards: 4},
			body: `{` + qJSON + `,"k":10,"parallelism":1,"shards":4}`},
		{args: []string{"-shards", "4", "-p", "2"},
			want:  fuzzydb.Request{K: 10, Parallelism: 2, Shards: 4},
			body:  `{` + qJSON + `,"k":10,"parallelism":2,"shards":4}`,
			print: "sharded over 4 universe slices:"},
		{args: []string{"-prefetch", "0", "-p", "8"},
			want: fuzzydb.Request{K: 10, Parallelism: 8, Shards: 1, Prefetch: depth(0)},
			body: `{` + qJSON + `,"k":10,"parallelism":8,"shards":1,"prefetch":0}`},
		{args: []string{"-budget", "5000", "-degrade", "1"},
			want: fuzzydb.Request{K: 10, Parallelism: 1, Shards: 1, Budget: 5000, Degrade: 1},
			body: `{` + qJSON + `,"k":10,"parallelism":1,"shards":1,"budget":5000,"degrade":1}`},
		{args: []string{"-tenant", "gold", "-k", "3", "-prefetch", "4"},
			want: fuzzydb.Request{K: 3, Parallelism: 1, Shards: 1, Prefetch: depth(4), Tenant: "gold"},
			body: `{` + qJSON + `,"k":3,"parallelism":1,"shards":1,"prefetch":4,"tenant":"gold"}`},
	} {
		tc.want.Query = q
		args := append([]string{"-q", q}, tc.args...)
		var stdout, stderr bytes.Buffer
		local, _ := parseFlags(args, &stderr)
		remote, _ := parseFlags(append(args, "-connect", ts.URL), &stderr)
		if local == nil || remote == nil {
			t.Fatalf("%v: flags refused: %s", tc.args, stderr.String())
		}
		if !reflect.DeepEqual(local.req, tc.want) || !reflect.DeepEqual(remote.req, tc.want) {
			t.Errorf("%v:\n local  %+v\n remote %+v\n want   %+v", tc.args, local.req, remote.req, tc.want)
		}
		if code := run(append(args, "-connect", ts.URL), &stdout, &stderr); code != 0 {
			t.Fatalf("%v over -connect exited %d: %s", tc.args, code, stderr.String())
		}
		if strings.TrimSpace(string(posted)) != tc.body {
			t.Errorf("%v: posted\n %s\nwant\n %s", tc.args, posted, tc.body)
		}
		if !strings.Contains(stdout.String(), tc.print) {
			t.Errorf("%v: report lacks %q:\n%s", tc.args, tc.print, stdout.String())
		}
	}
}

// TestHelpIsGolden: fuzzyquery -h prints what testdata/help.golden holds
// — the flag names, defaults and usage strings the command had before its
// flags were re-bound onto a Request (and the list the wire package's
// request census looks flags up in). A new flag changes the golden
// knowingly.
func TestHelpIsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("-h exited %d and wrote %q to stdout, want 0 and nothing", code, stdout.String())
	}
	if stderr.String() != string(want) {
		t.Errorf("-h differs from testdata/help.golden:\n%s", stderr.String())
	}
	stderr.Reset()
	if code := run(nil, &stdout, &stderr); code != 2 || stderr.String() != string(want) {
		t.Errorf("no -q: exited %d, want 2 and the usage text; got:\n%s", code, stderr.String())
	}
}

// TestReportPrintsCacheHandling: the result-cache line names a hit with
// what it saved, a repair, and a plain miss.
func TestReportPrintsCacheHandling(t *testing.T) {
	saved := wire.Cost{Sorted: 30, Random: 20}
	for _, tc := range []struct {
		cache *wire.CacheInfo
		want  string
	}{
		{&wire.CacheInfo{Hit: true, Epoch: 7, SavedCost: &saved}, "result cache: hit (saved S=30 R=20 total=50, data epoch 7)\n"},
		{&wire.CacheInfo{Repaired: true, Epoch: 7}, "result cache: repaired (raised grades read by random access, data epoch 7)\n"},
		{&wire.CacheInfo{Epoch: 7}, "result cache: miss\n"},
	} {
		var out bytes.Buffer
		printReport(&out, wire.QueryResponse{Cache: tc.cache}, func(o int) string { return fmt.Sprint(o) }, ran{repeat: 1})
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("Cache %+v printed\n%s\nwant a line %q", *tc.cache, out.String(), tc.want)
		}
	}
}
