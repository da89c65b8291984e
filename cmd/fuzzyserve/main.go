// Command fuzzyserve deploys the engine as a network service: it serves
// a scoring database's sorted lists as the wire protocol's paged source
// RPCs, and the full query engine over them.
//
// Serve a generated database (lists exposed as A1…Am, target "*"):
//
//	fuzzygen -n 100000 -m 3 -o db.json
//	fuzzyserve -db db.json -addr :8080
//
// or generate one in memory for quick experiments:
//
//	fuzzyserve -n 100000 -m 3 -seed 7 -addr :8080
//
// Admission control (off by default): -rate/-burst meter every tenant's
// spend in Section 5 access-cost units, -max-concurrent bounds the
// evaluations in flight, and -tenants grants named tenants weights and
// their own buckets, e.g.
//
//	fuzzyserve -rate 5000 -burst 20000 -max-concurrent 8 \
//	    -tenants "gold=3,bronze=1"
//
// Requests name their tenant in the query body ("tenant") or the
// X-Fuzzydb-Tenant header; shed requests get HTTP 429 with Retry-After.
//
// Endpoints (see the internal/wire package documentation for the full
// protocol spec):
//
//	GET  /v1/meta     server self-description
//	POST /v1/entries  sorted access (paged)
//	POST /v1/grade    random access
//	POST /v1/grades   random access, batched (at most a page of objects)
//	POST /v1/query    one engine evaluation, full cost report
//	GET  /v1/results  streaming NDJSON answer cursor
//
// Remote engines dial the source endpoints (wire.Dial) and evaluate
// Fagin's algorithms locally with bit-identical Section 5 costs; thin
// clients (fuzzyquery -connect) post whole queries instead and let this
// process evaluate.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fuzzydb"

	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		dbFile = flag.String("db", "", "scoring database JSON (from fuzzygen); default: generate with -n/-m/-seed")
		n      = flag.Int("n", 10000, "objects to generate when no -db is given")
		m      = flag.Int("m", 2, "lists to generate when no -db is given")
		seed   = flag.Uint64("seed", 1, "generation seed when no -db is given")
		page   = flag.Int("page", wire.DefaultPage, "entries per /v1/entries response")
		cache  = flag.Int("cache", 0, "equip the query engine with a result cache of this many entries (0 = off); /v1/query responses then report cache handling")

		readTimeout = flag.Duration("read-timeout", 10*time.Second, "full-request read deadline (slowloris guard); header deadline is min(5s, this)")

		rate    = flag.Float64("rate", 0, "per-tenant token refill in access-cost units per second (0 = no token metering)")
		burst   = flag.Float64("burst", 0, "per-tenant token-bucket capacity in access-cost units (0 with -rate set = a sane default)")
		maxConc = flag.Int("max-concurrent", 0, "evaluations in flight at once across all tenants (0 = unbounded)")
		tenants = flag.String("tenants", "", `named tenants with fair-share weights, e.g. "gold=3,bronze=1" (unlisted tenants get weight 1)`)
	)
	flag.Parse()

	sched, err := buildScheduler(*rate, *burst, *maxConc, *tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzyserve: %v\n", err)
		os.Exit(2)
	}

	db, err := loadDB(*dbFile, *n, *m, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzyserve: %v\n", err)
		os.Exit(1)
	}

	mux, err := buildMux(db, *page, *cache, sched)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzyserve: %v\n", err)
		os.Exit(1)
	}

	headerTimeout := 5 * time.Second
	if *readTimeout > 0 && *readTimeout < headerTimeout {
		headerTimeout = *readTimeout
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// Slowloris guard: a client must finish its headers and body
		// within these deadlines or the connection is dropped. No
		// WriteTimeout, deliberately — /v1/results is an unbounded
		// NDJSON streaming cursor paced by the consumer, and a write
		// deadline would sever every slow-but-live stream; cancellation
		// of abandoned streams comes from the request context instead.
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       120 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	log.Printf("fuzzyserve: serving %d lists over %d objects on %s", db.M(), db.N(), *addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatalf("fuzzyserve: %v", err)
	case sig := <-stop:
		log.Printf("fuzzyserve: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("fuzzyserve: shutdown: %v", err)
		}
	}
}

// buildScheduler assembles the admission scheduler from the -rate,
// -burst, -max-concurrent, and -tenants flags; all unset means no
// admission layer (nil scheduler).
func buildScheduler(rate, burst float64, maxConc int, tenants string) (*fuzzydb.Scheduler, error) {
	if rate <= 0 && burst <= 0 && maxConc <= 0 && tenants == "" {
		return nil, nil
	}
	cfg := fuzzydb.SchedulerConfig{Rate: rate, Burst: burst, MaxConcurrent: maxConc}
	if tenants != "" {
		cfg.Tenants = make(map[string]fuzzydb.SchedulerTenantConfig)
		for _, spec := range strings.Split(tenants, ",") {
			name, weightStr, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok || name == "" {
				return nil, fmt.Errorf(`-tenants: want "name=weight[,name=weight...]", got %q`, spec)
			}
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("-tenants: bad weight for %q: %q", name, weightStr)
			}
			cfg.Tenants[name] = fuzzydb.SchedulerTenantConfig{Weight: w}
		}
	}
	return fuzzydb.NewScheduler(cfg), nil
}

// loadDB reads the scoring database, or generates one.
func loadDB(dbFile string, n, m int, seed uint64) (*scoredb.Database, error) {
	if dbFile == "" {
		return scoredb.Generator{N: n, M: m, Law: scoredb.Uniform{}, Seed: seed}.Generate()
	}
	f, err := os.Open(dbFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scoredb.ReadJSON(f)
}

// buildMux mounts the source server (lists A1…Am) and the query server
// (an engine over the same lists, target "*") on one mux; cache > 0
// gives the engine a result cache of that many entries; a non-nil sched
// puts the engine behind admission control.
func buildMux(db *scoredb.Database, page, cache int, sched *fuzzydb.Scheduler) (*http.ServeMux, error) {
	lists := make(map[string]subsys.Source, db.M())
	subs := make([]fuzzydb.Subsystem, db.M())
	for i := 0; i < db.M(); i++ {
		name := fmt.Sprintf("A%d", i+1)
		lists[name] = subsys.FromList(db.List(i))
		s := fuzzydb.NewStaticSubsystem(name, db.N())
		s.Set("*", db.List(i))
		subs[i] = s
	}
	ss, err := wire.NewSourceServer(lists, wire.WithPage(page), wire.WithEngine())
	if err != nil {
		return nil, err
	}
	var engOpts []fuzzydb.EngineOption
	if cache > 0 {
		engOpts = append(engOpts, fuzzydb.WithCache(cache))
	}
	if sched != nil {
		engOpts = append(engOpts, fuzzydb.WithScheduler(sched))
	}
	eng, err := fuzzydb.NewEngine(subs, engOpts...)
	if err != nil {
		return nil, err
	}
	qs := wire.NewQueryServer(eng)

	mux := http.NewServeMux()
	ss.Register(mux)
	qs.Register(mux)
	return mux, nil
}
