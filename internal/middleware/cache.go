package middleware

// The engine half of the result cache: WithCache wires an
// internal/cache LRU into Query, serving repeat requests in O(k) with
// zero source accesses. The cache package owns the bound, the stats,
// and the revalidation rules (fresh, repair, dead); this file owns the
// key (normalized query AST + request shape), the epoch plumbing to the
// registered subsystems, the repair's one core.Run body, and the rule
// for what is cacheable at all.
//
// Cacheable means: the report is a pure function of the query and the
// data. Budgeted requests (their reports depend on where the budget
// struck) and degraded requests (on which lists failed) are computed
// fresh every time. Every algorithm returns exact grades (see
// core.Algorithm), so a stored answer carries the true grades, which the
// revalidation rules and the repair's merge need. Non-monotone queries
// are exact too, but their aggregates move unpredictably under updates,
// so the revalidation argument does not apply; they are not cached
// either. The streaming entry points (Results, Stream) never consult
// the cache: a cursor's pages are computed over live source snapshots.

import (
	"context"
	"fmt"

	"fuzzydb/internal/cache"
	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/query"
	"fuzzydb/internal/subsys"
)

// CacheInfo records how the result cache handled a request; see
// Report.Cache.
type CacheInfo struct {
	// Hit reports whether the request was served from the cache.
	Hit bool
	// Repaired reports a miss that a repair answered: raised grades had
	// left the cached answer stale, and the report's Cost is what
	// reading the raised objects' missing grades took.
	Repaired bool
	// Epoch is the data version the answer reflects: the sum of the
	// per-atom source epochs the entry is valid at (0 when every source
	// is immutable).
	Epoch uint64
	// SavedCost is, on a hit, the Section 5 spend of the original
	// computation — the access cost this request did not pay. Zero on a
	// miss, a repair included.
	SavedCost cost.Cost
}

// CacheStats re-exports the cache's cumulative counters (see
// cache.Stats).
type CacheStats = cache.Stats

// WithCache equips the engine with a bounded result cache of the given
// capacity (entries; non-positive selects cache.DefaultSize). Repeat
// queries with identical normalized form and request shape are then
// served from the cache in O(k), with zero source accesses, the
// original computation's results and Section 5 tallies, and
// Report.Cache filled in. Grade updates on Versioned subsystems leave
// alone the entries they cannot disturb; a raised grade that could
// enter or reorder an answer is repaired by reading the raised object's
// grades that the journal does not state — m−1 random accesses for one
// raise on an m-atom query — and only a lowered member or an
// unreplayable journal forces a recompute (see package cache).
func WithCache(capacity int) Option {
	return func(m *Middleware) { m.resultCache = cache.New(capacity) }
}

// Invalidate drops every cached result. It is the big hammer for data
// changes the epoch journals cannot describe (bulk reload of a
// non-Versioned subsystem); Versioned updates invalidate selectively
// on their own.
func (m *Middleware) Invalidate() {
	if m.resultCache != nil {
		m.resultCache.Invalidate()
	}
}

// CacheStats returns the result cache's counters; ok is false when the
// engine was built without WithCache.
func (m *Middleware) CacheStats() (CacheStats, bool) {
	if m.resultCache == nil {
		return CacheStats{}, false
	}
	return m.resultCache.Stats(), true
}

// CacheLen returns the number of live cached entries (0 without
// WithCache).
func (m *Middleware) CacheLen() int {
	if m.resultCache == nil {
		return 0
	}
	return m.resultCache.Len()
}

// cacheKey decides whether the request may touch the cache at all and,
// if so, builds its lookup key. Not cacheable: an engine without a
// cache, and a budgeted, degradable or non-monotone request (see the
// file comment for why each). The key is the canonical string
// of the normalized AST the plan was compiled from (rewrite is
// idempotent and String is deterministic, so equivalent spellings of a
// query share an entry), the clamped k, the algorithm (name plus
// configuration — FilterFirst's drive list is not in its name), the
// aggregation law, and the execution shape.
func (m *Middleware) cacheKey(plan *Plan, req Request) (cache.Key, bool) {
	if m.resultCache == nil || req.K < 1 || req.Budget > 0 || req.Degrade > 0 || !plan.Agg.Monotone() {
		return cache.Key{}, false
	}
	prefetch := -1
	if req.Prefetch != nil {
		prefetch = max(*req.Prefetch, 0) // as lower reads it
	}
	par := req.Parallelism
	if par <= 1 {
		par = 0
	}
	return cache.Key{
		Query:       plan.norm.String(),
		K:           m.clampK(req.K),
		Algorithm:   algID(plan.Algorithm),
		Law:         m.sem.And.Name() + "/" + m.sem.Or.Name(),
		Parallelism: par,
		Prefetch:    prefetch,
	}, true
}

// algID identifies an algorithm including its configuration fields
// (Name alone is too coarse: FilterFirst{Drive: 0} and {Drive: 1} pay
// different tallies under the same name).
func algID(alg core.Algorithm) string {
	return fmt.Sprintf("%s%+v", alg.Name(), alg)
}

// subsystemEpoch reads the current epoch of the subsystem owning attr:
// 0 for immutable (non-Versioned) subsystems.
func (m *Middleware) subsystemEpoch(attr string) uint64 {
	if v, ok := m.subsystems[attr].(subsys.Versioned); ok {
		return v.Epoch()
	}
	return 0
}

// atomEpochs snapshots the per-atom source epochs; query says when, and
// why the order matters.
func (m *Middleware) atomEpochs(atoms []query.Atomic) []uint64 {
	out := make([]uint64, len(atoms))
	for i, a := range atoms {
		out[i] = m.subsystemEpoch(a.Attr)
	}
	return out
}

// revalidate replays the updates an entry missed from the journals of
// the plan's subsystems. The entry's atoms align with plan.Atoms (same
// normalized query, so same compiled atom order).
func (m *Middleware) revalidate(plan *Plan, e *cache.Entry) (cache.Verdict, *cache.Probe) {
	if len(e.Atoms) != len(plan.Atoms) {
		return cache.Dead, nil
	}
	return e.Revalidate(
		func(i int) uint64 { return m.subsystemEpoch(plan.Atoms[i].Attr) },
		func(i int, since uint64) ([]subsys.Update, bool) {
			v, ok := m.subsystems[plan.Atoms[i].Attr].(subsys.Versioned)
			if !ok {
				// Immutable subsystem: its epoch is constant 0, so a
				// stamp mismatch is impossible and this is unreached;
				// answer conservatively anyway.
				return nil, since == 0
			}
			return v.UpdatesSince(since)
		},
		func(i int, u subsys.Update) bool { return u.Target == plan.Atoms[i].Target },
	)
}

// cacheLookup looks the key up and revalidates the entry: a fresh one is
// served as a hit, a clone of the original report; a repair verdict is
// answered by cacheRepair. A nil report means the request recomputes;
// the cost is then what a repair that failed spent first.
func (m *Middleware) cacheLookup(ctx context.Context, key cache.Key, plan *Plan, req Request) (*Report, cost.Cost) {
	var probe *cache.Probe
	e, v := m.resultCache.Get(key, func(e *cache.Entry) cache.Verdict {
		var v cache.Verdict
		v, probe = m.revalidate(plan, e)
		return v
	})
	switch v {
	case cache.Fresh:
		rep := cloneReport(e.Payload.(*Report))
		rep.Cache = &CacheInfo{Hit: true, Epoch: e.EpochSum(), SavedCost: e.SavedCost}
		return rep, cost.Cost{}
	case cache.Repair:
		return m.cacheRepair(ctx, key, plan, req, e, probe)
	}
	return nil, cost.Cost{}
}

// cacheRepair mends an entry that raised grades left stale, in one
// core.Run body: the probe reads the grades the replayed journal does
// not state — through Counted.Grades, batched per list — and merges the
// probed objects with the cached answer; the repaired entry replaces the
// old one, stamped at the epochs the replay reached, so an update racing
// the probe is replayed by the next lookup. The report carries the
// repaired answer and exactly the probe's tally. A repair that fails (a
// source error, or a tie the recompute might break another way) drops
// the entry and returns nil with what it spent.
func (m *Middleware) cacheRepair(ctx context.Context, key cache.Key, plan *Plan, req Request, e *cache.Entry, p *cache.Probe) (*Report, cost.Cost) {
	var top []gradedset.Entry
	sr := &core.ShardReport{}
	lists, err := m.sources(plan.Atoms)
	if err == nil {
		sr, err = core.Run(ctx, lists, core.ShardConfig{Model: req.Model}, func(_ *core.ExecContext, counted []*subsys.Counted) ([]core.Result, error) {
			var err error
			top, err = p.Run(func(i int, objs []int, col []float64) error {
				counted[i].Grades(objs, col)
				return counted[i].Err()
			})
			return nil, err
		})
	}
	if err != nil {
		m.resultCache.Drop(key, e)
		return nil, sr.Cost
	}
	results := make([]core.Result, len(top))
	for i, r := range top {
		results[i] = core.Result(r)
	}
	payload := *e.Payload.(*Report)
	payload.Results = results
	repaired := p.Entry(cloneReport(&payload), top)
	rep := &Report{Results: results, Cost: sr.Cost, PerList: sr.PerList, Plan: plan,
		Cache: &CacheInfo{Repaired: true, Epoch: repaired.EpochSum()}}
	m.resultCache.Repaired(key, repaired)
	return rep, cost.Cost{}
}

// cacheStore publishes what a cacheable miss computed, stamped with the
// epochs snapshotted before its sources were materialized, and marks the
// report as the miss it was. An empty answer has no k-th grade for the
// revalidation rules to hold on to and is not stored.
func (m *Middleware) cacheStore(key cache.Key, plan *Plan, rep *Report, epochs []uint64) {
	if len(rep.Results) == 0 {
		return
	}
	top := make([]gradedset.Entry, len(rep.Results))
	for i, r := range rep.Results {
		top[i] = gradedset.Entry(r)
	}
	atoms := make([]cache.AtomRef, len(plan.Atoms))
	for i, a := range plan.Atoms {
		atoms[i] = cache.AtomRef{Attr: a.Attr, Target: a.Target}
	}
	entry := cache.NewEntry(cloneReport(rep), rep.Cost, atoms, plan.Agg, top, epochs)
	// The entry owns epochs from here on, and once Put publishes it a
	// concurrent hit's Revalidate writes them: read the sum first.
	rep.Cache = &CacheInfo{Hit: false, Epoch: entry.EpochSum()}
	m.resultCache.Put(key, entry)
}

// cloneReport deep-copies the report sections a caller could mutate,
// so the cached original stays pristine no matter what happens to
// served copies. Degraded reports are never cached, and Cache is
// per-serve.
func cloneReport(r *Report) *Report {
	cp := *r
	if r.Results != nil {
		cp.Results = append([]core.Result(nil), r.Results...)
	}
	if r.PerList != nil {
		cp.PerList = append([]cost.Cost(nil), r.PerList...)
	}
	if r.Prefetch != nil {
		p := *r.Prefetch
		cp.Prefetch = &p
	}
	if r.Plan != nil {
		pl := *r.Plan
		cp.Plan = &pl
	}
	cp.Degraded = nil
	cp.Cache = nil
	return &cp
}
