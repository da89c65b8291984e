package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"fuzzydb"
	"fuzzydb/internal/core"
	"fuzzydb/internal/query"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
	"fuzzydb/internal/wire"
)

// clients is the closed-loop client count of every workload: embedding
// callers and thin /v1/query clients each wait for their reply before
// sending the next request.
const clients = 2

// workload names, in reporting order.
const (
	wEmbedConj     = "embed_conj"
	wServeHot      = "serve_hot"
	wEmbedWrites   = "embed_writes"
	wRemoteSources = "remote_sources"
)

// spec describes one workload: its deployment, data shape and traffic.
//
// Every workload draws its queries from many list combinations rather
// than one fixed conjunction. How deep A0 must read before it has k
// matches is a random property of how the lists' orders happen to
// align, with a relative spread near 10 % (m=3) to 16 % (m=2) per
// combination at k=10; a workload over one combination would move that
// much from seed to seed in cost and latency alike. Averaging over tens
// of combinations brings the seed-to-seed spread to a few percent
// without making the data any larger.
type spec struct {
	name string
	why  string
	// n objects per database, lists per database, dbs databases.
	n, lists, dbs int
	// arity of every conjunction; combos are the list sets queried.
	arity int
	// ks are the answer counts in use; keys = combos × ks.
	ks []int
	// verifyOps is the length of the fixed verification sequence.
	verifyOps int
	// cache is the engine's result-cache capacity (0 = none).
	cache int
	// disjoint selects disjoint list groups (so a write invalidates one
	// group only) instead of every arity-subset of the lists.
	disjoint bool
}

// specs returns the four workloads. smoke shrinks data and sequences so
// the whole protocol runs in about a second per workload.
func specs(smoke bool) []spec {
	ss := []spec{
		{
			name: wEmbedConj,
			why:  "in-process Engine.Query over big static lists, no cache, scheduler or wire: core, subsys, gradedset and middleware do all the work",
			n:    32768, lists: 6, dbs: 4, arity: 3, ks: []int{10}, verifyOps: 2000,
		},
		{
			name: wServeHot,
			why:  "thin clients over loopback HTTP to a fuzzyserve-shaped engine with cache and scheduler, skewed keys larger than the cache: p50 is the hit path, p95 the miss path",
			n:    32768, lists: 6, dbs: 1, arity: 3, ks: []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}, verifyOps: 8000, cache: 128,
		},
		{
			name: wEmbedWrites,
			why:  "in-process cached engine over mutable lists with one grade update per four queries: copy-on-write updates, journal replay and cache revalidation beside reads",
			n:    32768, lists: 18, dbs: clients, arity: 3, ks: []int{10, 11, 12, 13}, verifyOps: 8000, cache: 64, disjoint: true,
		},
		{
			name: wRemoteSources,
			why:  "in-process engine over wire-backed sources with the pipelined executor: hundreds of loopback RPCs per query, so wire framing and core.Pipelined dominate",
			n:    4096, lists: 16, dbs: 1, arity: 2, ks: []int{10}, verifyOps: 240,
		},
	}
	if smoke {
		for i := range ss {
			ss[i].n = 1024
			ss[i].verifyOps = 50
		}
	}
	return ss
}

// combos returns the list sets a spec queries: every arity-subset of
// the lists in lexicographic order, or consecutive disjoint groups.
func (s spec) combos() [][]int {
	var out [][]int
	if s.disjoint {
		for lo := 0; lo+s.arity <= s.lists; lo += s.arity {
			c := make([]int, s.arity)
			for i := range c {
				c[i] = lo + i
			}
			out = append(out, c)
		}
		return out
	}
	c := make([]int, s.arity)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == s.arity {
			out = append(out, append([]int(nil), c...))
			return
		}
		for i := start; i < s.lists; i++ {
			c[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// queryKey is one distinct request: a conjunction over lists with an
// answer count. Key i is combo i%len(combos) at ks[i/len(combos)], so
// every answer count covers every combination.
type queryKey struct {
	lists []int
	k     int
	node  query.Node // for Engine.Query
	text  string     // for wire.Client.Query
}

func (s spec) keys() []queryKey {
	combos := s.combos()
	out := make([]queryKey, 0, len(combos)*len(s.ks))
	for _, k := range s.ks {
		for _, c := range combos {
			atoms := make([]query.Atomic, len(c))
			for i, l := range c {
				atoms[i] = query.Atomic{Attr: listName(l), Target: "*"}
			}
			node := query.Conj(atoms...)
			out = append(out, queryKey{lists: c, k: k, node: node, text: node.String()})
		}
	}
	return out
}

func listName(i int) string { return fmt.Sprintf("A%02d", i+1) }

// op is one client operation: a query (key on database db) or a grade
// write (list, obj, grade on database db).
type op struct {
	write bool
	db    int
	key   int
	list  int
	obj   int
	grade float64
}

// opGen is one client's deterministic operation stream. The same spec,
// seed and client always yield the same stream, so the verify pass, its
// traced replay and a second run of the benchmark see the same inputs.
type opGen struct {
	s       spec
	client  int
	nkeys   int
	rng     *rand.Rand
	i       int // operations issued
	queries int
	writes  int
}

func newOpGen(s spec, seed uint64, client int) *opGen {
	return &opGen{s: s, client: client, nkeys: len(s.combos()) * len(s.ks), rng: rand.New(rand.NewPCG(seed, 0xc11e47+uint64(client)))}
}

func (g *opGen) next() op {
	i := g.i
	g.i++
	// turn is this operation's place in the clients' interleaved order.
	turn := clients*i + g.client
	switch g.s.name {
	case wEmbedConj:
		// Sweep every (database, combination) pair evenly.
		g.queries++
		return op{db: turn % g.s.dbs, key: (turn / g.s.dbs) % g.nkeys}
	case wServeHot:
		// nkeys·u³ skew: low keys are hot, and there are more keys than
		// cache entries, so the LRU churns steadily.
		u := g.rng.Float64()
		g.queries++
		return op{key: int(float64(g.nkeys) * u * u * u)}
	case wEmbedWrites:
		// One private database per client; every fifth operation is a
		// write. 7 of 8 writes lower a grade (the cached answers survive
		// the threshold test), 1 of 8 raises one above any k-th grade
		// and evicts the answers over that list.
		if i%5 == 4 {
			g.writes++
			o := op{write: true, db: g.client, list: g.rng.IntN(g.s.lists), obj: g.rng.IntN(g.s.n)}
			if g.writes%8 == 0 {
				o.grade = 0.9995 + 0.0004*g.rng.Float64()
			} else {
				o.grade = 0.2 * g.rng.Float64()
			}
			return o
		}
		// Cycle the answer counts within a combination before moving to
		// the next, so one eviction costs one recompute per count.
		q := g.queries % g.nkeys
		g.queries++
		combos := g.nkeys / len(g.s.ks)
		return op{db: g.client, key: (q%len(g.s.ks))*combos + (q/len(g.s.ks))%combos}
	default: // wRemoteSources
		g.queries++
		return op{key: turn % g.nkeys}
	}
}

// outcome is what one executed operation reported.
type outcome struct {
	// results holds the answers in whichever form the entry point
	// returned them; they are converted off the clock.
	embed []core.Result
	wire  []wire.Result
	// sorted and random are the Section 5 accesses this request actually
	// spent: the report's tally on a computation, 0 on a cache hit.
	sorted    int
	random    int
	hit       bool
	algorithm string
	batches   int   // prefetch pipeline batches (pipelined requests)
	stalls    int   // prefetch pipeline stalls
	engineNS  int64 // serve_hot: the server's own ElapsedNS
}

func (o outcome) cost() int { return o.sorted + o.random }

func (o outcome) answers() []answer {
	out := make([]answer, 0, len(o.embed)+len(o.wire))
	for _, r := range o.embed {
		out = append(out, answer{Object: r.Object, Grade: r.Grade})
	}
	for _, r := range o.wire {
		out = append(out, answer{Object: r.Object, Grade: r.Grade})
	}
	return out
}

// instance is one set-up deployment of a workload.
type instance struct {
	s    spec
	keys []queryKey
	dbs  []*scoredb.Database // the generated data, as loaded at set-up
	tr   *tracer             // nil when tracing is off

	engines []*fuzzydb.Engine             // by database; serve_hot: the server's engine
	muts    [][]*fuzzydb.MutableSubsystem // embed_writes: [db][list]
	sched   *fuzzydb.Scheduler            // serve_hot
	client  *wire.Client                  // serve_hot, remote_sources
	probe   *sourceProbe                  // traced: the shared source probe
	rt      *tracingTransport             // traced: the client transport
	closers []func() error

	queryAgg, clientAgg *nameAgg
}

var tenants = [clients]string{"gold", "bronze"}

// schedulerConfig is serve_hot's admission control: two weighted
// tenants, a concurrency bound, and buckets so generous that admission
// is exercised on every request yet none is ever short of tokens — a
// shed would be a failure.
func schedulerConfig() fuzzydb.SchedulerConfig {
	return fuzzydb.SchedulerConfig{
		Rate: 1e9, Burst: 1e9, MaxConcurrent: 8,
		Tenants: map[string]fuzzydb.SchedulerTenantConfig{tenants[0]: {Weight: 3}, tenants[1]: {Weight: 1}},
	}
}

// setUp generates the workload's databases from seed and builds its
// deployment. With a tracer, every boundary is wrapped.
func setUp(s spec, seed uint64, tr *tracer) (*instance, error) {
	in := &instance{s: s, keys: s.keys(), tr: tr}
	if tr != nil {
		p := newSourceProbe(tr)
		in.probe = &p
		in.queryAgg = tr.agg(spanQuery)
		in.clientAgg = tr.agg(spanClient)
	}
	for d := 0; d < s.dbs; d++ {
		db, err := scoredb.Generator{N: s.n, M: s.lists, Law: scoredb.Uniform{}, Seed: seed*0x9E3779B97F4A7C15 + uint64(d)}.Generate()
		if err != nil {
			return nil, err
		}
		in.dbs = append(in.dbs, db)
	}
	var err error
	switch s.name {
	case wEmbedConj:
		err = in.setUpEmbedded(false)
	case wEmbedWrites:
		err = in.setUpEmbedded(true)
	case wServeHot:
		err = in.setUpServer()
	case wRemoteSources:
		err = in.setUpRemote()
	default:
		err = fmt.Errorf("unknown workload %q", s.name)
	}
	if err != nil {
		_ = in.close()
		return nil, err
	}
	return in, nil
}

// traced wraps subsystems when tracing is on.
func (in *instance) traced(subs []fuzzydb.Subsystem) []fuzzydb.Subsystem {
	if in.tr == nil {
		return subs
	}
	return traceSubsystems(subs, *in.probe)
}

// setUpEmbedded builds one engine per database, over static lists or —
// mutable — over copy-on-write lists with a result cache.
func (in *instance) setUpEmbedded(mutable bool) error {
	for _, db := range in.dbs {
		subs := make([]fuzzydb.Subsystem, db.M())
		var muts []*fuzzydb.MutableSubsystem
		for i := range subs {
			if mutable {
				ms := fuzzydb.NewMutableSubsystem(listName(i), db.N())
				ms.Set("*", db.List(i))
				muts = append(muts, ms)
				subs[i] = ms
			} else {
				ss := fuzzydb.NewStaticSubsystem(listName(i), db.N())
				ss.Set("*", db.List(i))
				subs[i] = ss
			}
		}
		var opts []fuzzydb.EngineOption
		if in.s.cache > 0 {
			opts = append(opts, fuzzydb.WithCache(in.s.cache))
		}
		eng, err := fuzzydb.NewEngine(in.traced(subs), opts...)
		if err != nil {
			return err
		}
		in.engines = append(in.engines, eng)
		if mutable {
			in.muts = append(in.muts, muts)
		}
	}
	return nil
}

// serve starts an HTTP server for h on an ephemeral loopback port with
// cmd/fuzzyserve's timeouts, and registers its shutdown.
func (in *instance) serve(h http.Handler) (string, error) {
	if in.tr != nil {
		h = tracingHandler(h, in.tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	in.closers = append(in.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// dial connects the wire client, through the tracing transport when
// tracing is on (with the pool sizes wire.Dial itself would use).
func (in *instance) dial(url string) error {
	var opts []wire.ClientOption
	if in.tr != nil {
		in.rt = newTracingTransport(&http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second}, in.tr)
		opts = append(opts, wire.WithHTTPClient(&http.Client{Transport: in.rt}))
	}
	c, err := wire.Dial(url, opts...)
	if err != nil {
		return err
	}
	in.client = c
	// Closed before the server shuts down, so no idle connection holds
	// the shutdown up.
	in.closers = append(in.closers, func() error { c.Close(); return nil })
	return nil
}

// setUpServer builds the deployment cmd/fuzzyserve builds: the source
// endpoints and a cached, scheduled engine on one mux.
func (in *instance) setUpServer() error {
	db := in.dbs[0]
	lists := make(map[string]subsys.Source, db.M())
	subs := make([]fuzzydb.Subsystem, db.M())
	for i := range subs {
		lists[listName(i)] = subsys.FromList(db.List(i))
		ss := fuzzydb.NewStaticSubsystem(listName(i), db.N())
		ss.Set("*", db.List(i))
		subs[i] = ss
	}
	ss, err := wire.NewSourceServer(lists, wire.WithPage(wire.DefaultPage), wire.WithEngine())
	if err != nil {
		return err
	}
	in.sched = fuzzydb.NewScheduler(schedulerConfig())
	eng, err := fuzzydb.NewEngine(in.traced(subs), fuzzydb.WithCache(in.s.cache), fuzzydb.WithScheduler(in.sched))
	if err != nil {
		return err
	}
	in.engines = []*fuzzydb.Engine{eng}
	mux := http.NewServeMux()
	ss.Register(mux)
	wire.NewQueryServer(eng).Register(mux)
	url, err := in.serve(mux)
	if err != nil {
		return err
	}
	return in.dial(url)
}

// setUpRemote builds the "remote engine" deployment: a source server on
// loopback and a local engine whose subsystems are its lists.
func (in *instance) setUpRemote() error {
	db := in.dbs[0]
	lists := make(map[string]subsys.Source, db.M())
	for i := 0; i < db.M(); i++ {
		var src subsys.Source = subsys.FromList(db.List(i))
		if in.tr != nil {
			// The server shares one Source per list across concurrent
			// requests, so this is the form without per-request state.
			src = &tracedSource{inner: src, p: *in.probe}
		}
		lists[listName(i)] = src
	}
	ss, err := wire.NewSourceServer(lists)
	if err != nil {
		return err
	}
	url, err := in.serve(ss)
	if err != nil {
		return err
	}
	if err := in.dial(url); err != nil {
		return err
	}
	eng, err := fuzzydb.NewEngine(in.client.Subsystems())
	if err != nil {
		return err
	}
	in.engines = []*fuzzydb.Engine{eng}
	return nil
}

// quiesce closes the client's idle connections and gives the server a
// moment to drop its side of them. How many connections a pass opened
// depends on timing, and each holds a few buffers, so a heap reading
// taken with them open would not repeat.
func (in *instance) quiesce() {
	if in.client != nil {
		in.client.Close()
		time.Sleep(20 * time.Millisecond)
	}
}

// close tears the deployment down: client first, then servers, each
// waited for.
func (in *instance) close() error {
	var err error
	for i := len(in.closers) - 1; i >= 0; i-- {
		err = errors.Join(err, in.closers[i]())
	}
	in.closers = nil
	return err
}

// exec runs one operation for one client. In a traced instance ctx
// carries the request span and the call into the layer gets its own.
func (in *instance) exec(ctx context.Context, client int, o op) (outcome, error) {
	if o.write {
		return outcome{}, in.muts[o.db][o.list].UpdateGrade("*", o.obj, o.grade)
	}
	key := in.keys[o.key]
	if in.s.name == wServeHot {
		return in.execWire(ctx, client, key)
	}
	var opts []fuzzydb.QueryOption
	if in.s.name == wRemoteSources {
		opts = []fuzzydb.QueryOption{fuzzydb.TopN(key.k), fuzzydb.WithPrefetch(0)}
	} else {
		opts = []fuzzydb.QueryOption{fuzzydb.TopN(key.k)}
	}
	var rep *fuzzydb.Report
	var err error
	if in.tr == nil {
		rep, err = in.engines[o.db].Query(ctx, key.node, opts...)
	} else {
		parent, _ := spanFrom(ctx)
		sc, start := in.tr.begin(parent)
		rep, err = in.engines[o.db].Query(withSpan(ctx, sc), key.node, opts...)
		in.tr.end(in.queryAgg, spanQuery, sc, parent.id, start, true)
	}
	if err != nil {
		return outcome{}, err
	}
	out := outcome{embed: rep.Results, sorted: rep.Cost.Sorted, random: rep.Cost.Random, algorithm: rep.Plan.Algorithm.Name()}
	out.hit = rep.Cache != nil && rep.Cache.Hit
	if rep.Prefetch != nil {
		out.batches, out.stalls = rep.Prefetch.Batches, rep.Prefetch.Stalls
	}
	if out.hit {
		out.sorted, out.random = 0, 0
	}
	return out, nil
}

func (in *instance) execWire(ctx context.Context, client int, key queryKey) (outcome, error) {
	req := wire.QueryRequest{Query: key.text, K: key.k, Tenant: tenants[client]}
	var resp *wire.QueryResponse
	var err error
	if in.tr == nil {
		resp, err = in.client.Query(ctx, req)
	} else {
		parent, _ := spanFrom(ctx)
		sc, start := in.tr.begin(parent)
		resp, err = in.client.Query(withSpan(ctx, sc), req)
		in.tr.end(in.clientAgg, spanClient, sc, parent.id, start, true)
	}
	if err != nil {
		return outcome{}, err
	}
	out := outcome{wire: resp.Results, sorted: resp.Cost.Sorted, random: resp.Cost.Random, algorithm: resp.Algorithm, engineNS: resp.ElapsedNS}
	out.hit = resp.Cache != nil && resp.Cache.Hit
	if out.hit {
		out.sorted, out.random = 0, 0
	}
	return out, nil
}
