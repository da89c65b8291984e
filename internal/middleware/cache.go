package middleware

// The engine half of the result cache: WithCache wires an
// internal/cache LRU into Query, serving repeat requests in O(k) with
// zero source accesses. The cache package owns the bound, the stats,
// and the threshold survival test; this file owns the key (normalized
// query AST + request shape), the epoch plumbing to the registered
// subsystems, and the rule for what is cacheable at all.
//
// Cacheable means: the report is a pure function of the query and the
// data. Budgeted requests (their reports depend on where the budget
// struck) and degraded requests (on which lists failed) are computed
// fresh every time. Every algorithm returns exact grades (see
// core.Algorithm), so a stored k-th grade is the true one, which the
// threshold survival test needs. Non-monotone queries are exact too, but
// their aggregates move unpredictably under updates, so the survival
// argument does not apply; they are not cached either. The
// streaming entry points (Results, Stream) never consult the cache:
// a cursor's pages are computed over live source snapshots.

import (
	"fmt"

	"fuzzydb/internal/cache"
	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/query"
	"fuzzydb/internal/subsys"
)

// CacheInfo records how the result cache handled a request; see
// Report.Cache.
type CacheInfo struct {
	// Hit reports whether the request was served from the cache.
	Hit bool
	// Epoch is the data version the answer reflects: the sum of the
	// per-atom source epochs the entry is valid at (0 when every source
	// is immutable).
	Epoch uint64
	// SavedCost is, on a hit, the Section 5 spend of the original
	// computation — the access cost this request did not pay. Zero on a
	// miss.
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
// Report.Cache filled in. Grade updates on Versioned subsystems
// invalidate only the entries they could disturb (see package cache).
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
	shards := req.Shards
	if shards <= 1 {
		shards = 0
	}
	par := req.Parallelism
	if par <= 1 {
		par = 0
	}
	shardPlan := 0
	if shards > 0 {
		shardPlan = int(req.ShardPlan)
	}
	return cache.Key{
		Query:       plan.norm.String(),
		K:           m.clampK(req.K),
		Algorithm:   algID(plan.Algorithm),
		Law:         m.sem.And.Name() + "/" + m.sem.Or.Name(),
		Shards:      shards,
		Parallelism: par,
		Prefetch:    prefetch,
		Plan:        shardPlan,
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

// cacheValidator builds the revalidation callbacks for an entry whose
// atoms align with plan.Atoms (same normalized query, so same compiled
// atom order).
func (m *Middleware) cacheValidator(plan *Plan) func(*cache.Entry) bool {
	return func(e *cache.Entry) bool {
		if len(e.Atoms) != len(plan.Atoms) {
			return false
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
}

// cacheHit looks the key up, revalidating a stale entry against the
// journals of the plan's subsystems, and serves a hit as a clone of the
// original report.
func (m *Middleware) cacheHit(key cache.Key, plan *Plan) (*Report, bool) {
	e, ok := m.resultCache.Get(key, m.cacheValidator(plan))
	if !ok {
		return nil, false
	}
	rep := cloneReport(e.Payload.(*Report))
	rep.Cache = &CacheInfo{Hit: true, Epoch: e.EpochSum(), SavedCost: e.SavedCost}
	return rep, true
}

// cacheStore publishes what a cacheable miss computed, stamped with the
// epochs snapshotted before its sources were materialized, and marks the
// report as the miss it was. An empty answer has no k-th grade for the
// survival test to hold on to and is not stored.
func (m *Middleware) cacheStore(key cache.Key, plan *Plan, rep *Report, epochs []uint64) {
	if len(rep.Results) == 0 {
		return
	}
	members := make([]int, len(rep.Results))
	for i, r := range rep.Results {
		members[i] = r.Object
	}
	atoms := make([]cache.AtomRef, len(plan.Atoms))
	for i, a := range plan.Atoms {
		atoms[i] = cache.AtomRef{Attr: a.Attr, Target: a.Target}
	}
	kth := rep.Results[len(rep.Results)-1].Grade
	entry := cache.NewEntry(
		cloneReport(rep), rep.Cost, atoms, plan.Agg, members, kth, epochs)
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
	if r.PerShard != nil {
		cp.PerShard = append([]cost.Cost(nil), r.PerShard...)
	}
	if r.ShardDetails != nil {
		cp.ShardDetails = append([]core.ShardDetail(nil), r.ShardDetails...)
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
