// Command fuzzyquery evaluates fuzzy queries against either the built-in
// compact-disk demo store (the paper's running example) or a scoring
// database generated by fuzzygen.
//
// Against the demo store, attributes are Artist, AlbumColor, and Title:
//
//	fuzzyquery -q 'Artist = "Beatles" AND AlbumColor ~ "red"' -k 5
//
// Against a generated database, lists are exposed as attributes A1…Am
// with the wildcard target "*":
//
//	fuzzygen -n 10000 -m 2 -o db.json
//	fuzzyquery -db db.json -q 'A1 = "*" AND A2 = "*"' -k 10
//
// The report shows the answers, the plan the optimizer chose, and the
// exact middleware cost (sorted + random accesses). The evaluation is a
// request: -timeout bounds its wall-clock, -budget its access cost, and
// -p overlaps the subsystem accesses (cost-neutral; wall-clock only).
//
// To exercise the latency-hiding pipeline against simulated remote
// backends, -latency adds a per-call delay to every subsystem source and
// -prefetch evaluates through the pipelined executor, whose readahead
// depth adapts up to a cap (0 = the default cap, >0 sets it); the cost
// report then includes the
// pipeline stats — the deepest batch the adaptive policy reached, how
// often the algorithm stalled on a source, and how many physical batched
// calls the prefetchers issued:
//
//	fuzzyquery -q 'A1 = "*" AND A2 = "*"' -db db.json -latency 1ms -prefetch 0
//
// To exercise the fault-tolerance machinery, -faults injects seeded
// deterministic transient faults (each fault site clears after two
// attempts) into every subsystem at the given per-access rate, and the
// report gains fault/resilience counters:
//
//   - with -retries R (> 0), every source is wrapped in the resilience
//     layer — R retries with exponential backoff and full jitter, plus a
//     circuit breaker — so the transient faults are absorbed invisibly:
//     the answers and the access cost are identical to a fault-free run,
//     only wall-clock and the retry counters change.
//   - with -retries 0, the first fault kills its list: with -degrade D
//     the engine drops up to D failed lists and re-evaluates the pruned
//     query over the survivors (the report lists what was dropped);
//     without it, the query fails fast with the typed source error.
//
// -fault-seed varies which accesses fail:
//
//	fuzzyquery -q 'A1 = "*" AND A2 = "*"' -db db.json -faults 0.05 -retries 3
//	fuzzyquery -q 'A1 = "*" AND A2 = "*"' -db db.json -faults 0.05 -degrade 1
//
// With -cache N the local engine keeps a bounded result cache of N
// entries, and -repeat M evaluates the query M times: repeats after the
// first are served from the cache with zero source accesses, and the
// report gains the last run's cache outcome plus the engine's
// hit/miss/store/eviction counters:
//
//	fuzzyquery -q 'A1 = "*" AND A2 = "*"' -db db.json -cache 64 -repeat 100
//
// With -connect, the query evaluates on a remote fuzzyserve instance
// instead. The flags that are fields of the request (fuzzydb.Request:
// -q, -k, -p, -budget, -prefetch, -degrade,
// -tenant) bind onto one value that is evaluated locally or sent as it
// stands, -timeout and -repeat apply to either, and the same report
// prints from the wire response — only the engine-assembly and
// simulation flags (-db, -latency, -faults, -retries, -cache; a
// fuzzyserve started with -cache reports its cache handling in every
// response) are local-only:
//
//	fuzzyserve -db db.json -addr :8080 &
//	fuzzyquery -connect http://127.0.0.1:8080 -q 'A1 = "*" AND A2 = "*"' -k 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"time"

	"fuzzydb"

	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flags is what the command line says: the request — one value, bound
// field by field, evaluated here or sent to -connect as it stands — and
// the flags that shape the run around it.
type flags struct {
	req     fuzzydb.Request
	connect string
	timeout time.Duration
	repeat  int

	// Local-only: engine assembly and simulation.
	dbFile    string
	latency   time.Duration
	faults    faultConfig
	cacheSize int
}

// connectConflict names the first flag, in declaration order, that was
// given a value and shapes a local engine (so it cannot travel with
// -connect), or "" when there is none.
func (f *flags) connectConflict() string {
	for _, c := range []struct {
		name string
		set  bool
	}{
		{"-db", f.dbFile != ""}, {"-latency", f.latency != 0}, {"-faults", f.faults.rate != 0},
		{"-fault-seed", f.faults.seed != 1}, {"-retries", f.faults.retries != 0}, {"-cache", f.cacheSize != 0},
	} {
		if c.set {
			return c.name
		}
	}
	return ""
}

// parseFlags binds the command line onto a flags value. A nil result
// means stop with the returned exit code (usage has been printed).
func parseFlags(args []string, stderr io.Writer) (*flags, int) {
	fs := flag.NewFlagSet("fuzzyquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	req := &f.req
	// The request. -prefetch is parsed below: -1 (off) is no depth.
	fs.StringVar(&req.Query, "q", "", "query, e.g. 'Artist = \"Beatles\" AND AlbumColor ~ \"red\"'")
	fs.IntVar(&req.K, "k", 10, "number of answers")
	fs.IntVar(&req.Parallelism, "p", 1, "subsystem accesses in flight at once, on the pipelined executor (1 = serial; for slow subsystems, see -latency)")
	fs.Float64Var(&req.Budget, "budget", 0, "access budget (sorted + random); 0 = unlimited")
	prefetch := fs.Int("prefetch", -1, "evaluate through the pipelined executor, its adaptive readahead depth (open at the depth the algorithm expects to reach, else at 1, double on stall) capped at this many ranks (0 = the default cap); -1 = off")
	fs.IntVar(&req.Degrade, "degrade", 0, "drop up to this many permanently failed lists and re-evaluate over the survivors; 0 = fail fast")
	fs.StringVar(&req.Tenant, "tenant", "", "admission tenant this query bills to on a scheduled server (travels with -connect; needs an engine built with a scheduler to matter)")
	// The run around it.
	fs.StringVar(&f.connect, "connect", "", "evaluate on a remote fuzzyserve at this base URL (e.g. http://127.0.0.1:8080) instead of locally")
	fs.DurationVar(&f.timeout, "timeout", 0, "evaluation deadline; 0 = none")
	fs.IntVar(&f.repeat, "repeat", 1, "evaluate the query this many times (with -cache, repeats after the first are served from the result cache)")
	fs.StringVar(&f.dbFile, "db", "", "scoring database JSON (from fuzzygen); default: built-in demo store")
	fs.DurationVar(&f.latency, "latency", 0, "simulated per-call subsystem latency (e.g. 1ms); 0 = none")
	fs.Float64Var(&f.faults.rate, "faults", 0, "inject transient faults into every subsystem at this per-access rate (e.g. 0.05); 0 = none")
	fs.Uint64Var(&f.faults.seed, "fault-seed", 1, "seed selecting which accesses fail under -faults")
	fs.IntVar(&f.faults.retries, "retries", 0, "wrap every source in the resilience layer with this many retries (plus backoff and a circuit breaker); 0 = off")
	fs.IntVar(&f.cacheSize, "cache", 0, "equip the local engine with a result cache of this many entries (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	if req.Query == "" {
		fs.Usage()
		return nil, 2
	}
	if *prefetch >= 0 {
		req.Prefetch = prefetch
	}
	if f.repeat < 1 {
		f.repeat = 1
	}
	if name := f.connectConflict(); f.connect != "" && name != "" {
		// The simulation and assembly flags shape a local engine; with
		// -connect the engine (and its data) live in the fuzzyserve process.
		fmt.Fprintf(stderr, "fuzzyquery: %s applies to a local engine; it cannot combine with -connect\n", name)
		return nil, 2
	}
	return &f, 0
}

func run(args []string, stdout, stderr io.Writer) int {
	f, code := parseFlags(args, stderr)
	if f == nil {
		return code
	}
	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	if f.connect != "" {
		return runRemote(ctx, stdout, stderr, f)
	}
	return runLocal(ctx, stdout, stderr, f)
}

// runLocal assembles the engine the flags describe and evaluates the
// request on it.
func runLocal(ctx context.Context, stdout, stderr io.Writer, f *flags) int {
	eng, tol, err := buildEngine(f.dbFile, f.latency, f.faults, f.cacheSize)
	if err != nil {
		fmt.Fprintf(stderr, "fuzzyquery: %v\n", err)
		return 1
	}
	start := time.Now()
	var rep *fuzzydb.Report
	for i := 0; i < f.repeat && err == nil; i++ {
		rep, err = eng.Do(ctx, f.req)
	}
	elapsed := time.Since(start)
	if err != nil {
		var se *fuzzydb.SourceError
		switch {
		case rep != nil && (errors.Is(err, fuzzydb.ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded)):
			fmt.Fprintf(stderr, "fuzzyquery: stopped early: %v (spent %v)\n", err, rep.Cost)
		case rep != nil && errors.As(err, &se):
			fmt.Fprintf(stderr, "fuzzyquery: subsystem failed: %v (spent %v)\n", err, rep.Cost)
			if f.req.Degrade == 0 && f.faults.retries == 0 {
				fmt.Fprintf(stderr, "fuzzyquery: hint: -retries N absorbs transient faults, -degrade N drops failed lists\n")
			}
		default:
			fmt.Fprintf(stderr, "fuzzyquery: %v\n", err)
		}
		return 1
	}

	printReport(stdout, wire.ResponseOf(rep, elapsed), eng.Name, ran{req: f.req, universe: eng.N(), repeat: f.repeat, elapsed: elapsed})
	if st, ok := eng.CacheStats(); ok {
		fmt.Fprintf(stdout, "result cache counters: %d hits, %d misses, %d repairs, %d stores, %d evictions, %d invalidations (%d live)\n",
			st.Hits, st.Misses, st.Repairs, st.Stores, st.Evictions, st.Invalidations, eng.CacheLen())
	}
	tol.print(stdout)
	return 0
}

// ran is what the printed report needs beyond the response: the request
// as evaluated and the caller's side of the clock.
type ran struct {
	req      fuzzydb.Request
	universe int           // N, for the naive-cost comparison
	repeat   int           // evaluations elapsed covers; the response is the last one's
	elapsed  time.Duration // caller-side wall-clock
}

// printReport renders the cost report from the one shape both paths
// have — a local Report lowered by wire.ResponseOf, or the response a
// fuzzyserve sent — so the two print identically up to how name spells
// an object (display names live with the data: eng.Name locally, #id
// over -connect).
func printReport(w io.Writer, resp wire.QueryResponse, name func(int) string, r ran) {
	fmt.Fprintf(w, "query: %s\nplan:  %s — %s\n\n", r.req.Query, resp.Algorithm, resp.Reason)
	fmt.Fprintf(w, "%-5s %-30s %s\n", "rank", "object", "grade")
	for i, res := range resp.Results {
		fmt.Fprintf(w, "%-5d %-30s %.4f\n", i+1, name(res.Object), res.Grade)
	}
	naive := len(resp.PerList) * r.universe
	if r.repeat > 1 {
		fmt.Fprintf(w, "\nmiddleware cost: %s (of a naive %d), wall-clock %v over %d runs (%v/run)\n",
			costString(resp.Cost), naive, r.elapsed.Round(time.Microsecond), r.repeat,
			(r.elapsed / time.Duration(r.repeat)).Round(time.Microsecond))
	} else {
		fmt.Fprintf(w, "\nmiddleware cost: %s (of a naive %d), wall-clock %v\n",
			costString(resp.Cost), naive, r.elapsed.Round(time.Microsecond))
	}
	if c := resp.Cache; c != nil && c.Hit {
		saved := ""
		if c.SavedCost != nil {
			saved = fmt.Sprintf("saved %s, ", costString(*c.SavedCost))
		}
		fmt.Fprintf(w, "result cache: hit (%sdata epoch %d)\n", saved, c.Epoch)
	} else if c != nil && c.Repaired {
		fmt.Fprintf(w, "result cache: repaired (raised grades read by random access, data epoch %d)\n", c.Epoch)
	} else if c != nil {
		fmt.Fprintln(w, "result cache: miss")
	}
	if p := resp.Prefetch; p != nil {
		fmt.Fprintf(w, "prefetch pipeline: max depth %d, stalls %d, batched calls %d, ranks fetched %d\n", p.MaxDepth, p.Stalls, p.Batches, p.Fetched)
	}
	for _, d := range resp.Degraded {
		fmt.Fprintf(w, "degraded: dropped %s = %q after %d attempts (%s sunk): %s\n",
			d.Attr, d.Target, d.Attempts, costString(d.Cost), d.Error)
	}
}

// costString renders a wire cost in the cost.Cost format.
func costString(c wire.Cost) string {
	return fmt.Sprintf("S=%d R=%d total=%d", c.Sorted, c.Random, c.Sorted+c.Random)
}

// runRemote evaluates the request on a fuzzyserve instance and prints the
// same report a local evaluation would. Objects print by id (#i): names
// live with the data, on the other side of the wire.
func runRemote(ctx context.Context, stdout, stderr io.Writer, f *flags) int {
	client, err := wire.Dial(f.connect)
	if err != nil {
		fmt.Fprintf(stderr, "fuzzyquery: %v\n", err)
		return 1
	}
	defer client.Close()
	if !client.Meta().Engine {
		fmt.Fprintf(stderr, "fuzzyquery: %s serves raw sources only (no query engine); point -connect at a fuzzyserve instance\n", f.connect)
		return 1
	}
	start := time.Now()
	var resp *wire.QueryResponse
	for i := 0; i < f.repeat; i++ {
		resp, err = client.Query(ctx, f.req)
		if err != nil {
			fmt.Fprintf(stderr, "fuzzyquery: %v\n", err)
			return 1
		}
	}
	elapsed := time.Since(start)

	printReport(stdout, *resp, func(obj int) string { return fmt.Sprintf("#%d", obj) },
		ran{req: f.req, universe: client.Meta().N, repeat: f.repeat, elapsed: elapsed})
	fmt.Fprintf(stdout, "server-side evaluation: %v\n", time.Duration(resp.ElapsedNS).Round(time.Microsecond))
	return 0
}

// faultConfig carries the fault-tolerance flags into engine assembly.
type faultConfig struct {
	rate    float64
	seed    uint64
	retries int
}

// tolerance holds the fault and resilience wrappers applied to the
// subsystems, so their counters can be reported after the query.
type tolerance struct {
	rate     float64
	seed     uint64
	faulty   []*subsys.FaultSubsystem
	resilied []*subsys.ResilientSubsystem
}

// print reports what the fault-tolerance machinery did during the query.
func (t *tolerance) print(w io.Writer) {
	if len(t.faulty) > 0 {
		var injected int64
		for _, f := range t.faulty {
			injected += f.Injected()
		}
		fmt.Fprintf(w, "fault injection: %d faults injected (rate %g, seed %d)\n", injected, t.rate, t.seed)
	}
	if len(t.resilied) > 0 {
		var st fuzzydb.ResilienceStats
		for _, r := range t.resilied {
			st = st.Add(r.Stats())
		}
		fmt.Fprintf(w, "resilience: %d retries, %d timeouts, %d breaker trips, %d fast-fails\n",
			st.Retries, st.Timeouts, st.BreakerTrips, st.FastFails)
	}
}

// buildEngine loads a generated database (attributes A1…Am, target "*")
// or assembles the demo CD store; latency > 0 wraps every subsystem as a
// simulated remote backend. The fault config stacks its wrappers
// outermost-first as resilience(latency(faults(subsystem))): faults are
// injected at the backend, latency is paid on every (re)try, and the
// resilience layer retries through both. cacheSize > 0 equips the
// engine with a result cache of that many entries.
func buildEngine(dbFile string, latency time.Duration, fc faultConfig, cacheSize int) (*fuzzydb.Engine, *tolerance, error) {
	subs, opts, err := buildSubsystems(dbFile)
	if err != nil {
		return nil, nil, err
	}
	tol := &tolerance{rate: fc.rate, seed: fc.seed}
	if fc.rate > 0 {
		for i, s := range subs {
			// Transient faults clearing after two attempts: -retries
			// absorbs them, -retries 0 turns the first one terminal.
			f := subsys.WithFaults(s, subsys.FaultPlan{
				Seed:      fc.seed,
				Rate:      fc.rate,
				Transient: 2,
			})
			tol.faulty = append(tol.faulty, f)
			subs[i] = f
		}
	}
	if latency > 0 {
		for i, s := range subs {
			subs[i] = fuzzydb.WithSubsystemLatency(s, latency, 0)
		}
	}
	if fc.retries > 0 {
		for i, s := range subs {
			r := subsys.WithResilience(s, subsys.Policy{
				MaxRetries:  fc.retries,
				BaseBackoff: 100 * time.Microsecond,
				Seed:        fc.seed,
			})
			tol.resilied = append(tol.resilied, r)
			subs[i] = r
		}
	}
	if cacheSize > 0 {
		opts = append(opts, fuzzydb.WithCache(cacheSize))
	}
	eng, err := fuzzydb.NewEngine(subs, opts...)
	return eng, tol, err
}

// buildSubsystems assembles the subsystem set (and engine options) for
// the generated database or the demo store.
func buildSubsystems(dbFile string) ([]fuzzydb.Subsystem, []fuzzydb.EngineOption, error) {
	if dbFile == "" {
		return demoStore()
	}
	f, err := os.Open(dbFile)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	db, err := scoredb.ReadJSON(f)
	if err != nil {
		return nil, nil, err
	}
	subs := make([]fuzzydb.Subsystem, db.M())
	for i := 0; i < db.M(); i++ {
		s := fuzzydb.NewStaticSubsystem(fmt.Sprintf("A%d", i+1), db.N())
		s.Set("*", db.List(i))
		subs[i] = s
	}
	return subs, nil, nil
}

// demoStore builds a ~200-album store in the shape of the paper's
// running example, with deterministic synthetic contents.
func demoStore() ([]fuzzydb.Subsystem, []fuzzydb.EngineOption, error) {
	rng := rand.New(rand.NewPCG(2026, 6))
	artists := []string{"Beatles", "Stones", "Dylan", "Miles Davis", "Coltrane", "Aretha Franklin"}
	adjectives := []string{"Red", "Blue", "Golden", "Midnight", "Electric", "Quiet", "Roaring"}
	nouns := []string{"Road", "Skyline", "Fingers", "Banquet", "Sessions", "Horizon", "Letters"}

	const n = 200
	names := make([]string, n)
	artistCol := make([]string, n)
	covers := make([][]float64, n)
	titles := make([]string, n)
	for i := 0; i < n; i++ {
		adj := adjectives[rng.IntN(len(adjectives))]
		noun := nouns[rng.IntN(len(nouns))]
		names[i] = fmt.Sprintf("%s %s #%d", adj, noun, i)
		artistCol[i] = artists[rng.IntN(len(artists))]
		covers[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		titles[i] = fmt.Sprintf("%s %s by %s", adj, noun, artistCol[i])
	}
	colorTargets := map[string][]float64{
		"red":   {1, 0, 0},
		"green": {0, 1, 0},
		"blue":  {0, 0, 1},
		"white": {1, 1, 1},
		"black": {0, 0, 0},
	}
	return []fuzzydb.Subsystem{
			fuzzydb.NewRelationalSubsystem("Artist", artistCol),
			fuzzydb.NewVectorSubsystem("AlbumColor", covers, colorTargets),
			fuzzydb.NewTextSubsystem("Title", titles),
		},
		[]fuzzydb.EngineOption{fuzzydb.WithObjectNames(names)},
		nil
}
