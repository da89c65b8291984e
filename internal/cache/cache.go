package cache

import (
	"container/list"
	"sync"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/subsys"
)

// Key identifies a cacheable request: the normalized query (its
// canonical AST string after rewrite), the answer count, the algorithm
// and aggregation law that computed it, and the execution shape fields
// that change what a report carries (shards, prefetch, parallelism).
// Two requests with equal keys are served the same report.
type Key struct {
	// Query is the canonical string of the normalized (rewritten) AST.
	Query string
	// K is the clamped answer count.
	K int
	// Algorithm is the name of the algorithm that computed the entry.
	Algorithm string
	// Law names the aggregation semantics (conjunction/disjunction
	// rules) the query compiled under.
	Law string
	// Shards, Parallelism, and Prefetch pin the execution shape: reports
	// carry shape-dependent sections (per-shard tallies, pipeline
	// stats), so a hit must come from the same shape. Prefetch is -1
	// when the request did not ask for the pipelined executor, else the
	// requested depth.
	Shards      int
	Parallelism int
	Prefetch    int
	// Plan extends the execution shape for sharded requests: the
	// shard-boundary policy perturbs the per-shard tallies a cached
	// report carries, so entries from different planning modes must not
	// collide. Zero for unsharded requests.
	Plan int
}

// AtomRef names one source list an entry depends on: the (attribute,
// target) pair of a planned atom.
type AtomRef struct {
	Attr   string
	Target string
}

// maxTracked bounds the per-entry map of updated-object grade
// knowledge. Beyond it, survival checks still run (with unknown grades
// bounded by 1) but stop refining — sound, just less sharp.
const maxTracked = 4096

// Entry is one cached computation. The exported fields are written at
// construction and read-only afterwards; revalidation state (epoch
// stamps, per-object grade knowledge) is internal and guarded.
type Entry struct {
	// Payload is the cached result, opaque to this package (the
	// middleware stores its Report here).
	Payload any
	// SavedCost is the Section 5 spend of the original computation: what
	// a hit avoids paying again.
	SavedCost cost.Cost
	// Atoms are the source lists the computation read, in plan order.
	Atoms []AtomRef

	agg      agg.Func
	kthGrade float64

	mu      sync.Mutex
	dead    bool
	epochs  []uint64          // per-atom source epoch the entry is valid at
	members map[int]struct{}  // objects in the cached top k
	known   map[int][]float64 // updated non-members: known grade per atom, -1 unknown
}

// NewEntry builds a cache entry: payload and saved cost to serve on a
// hit, and the survival-check inputs — the atoms read, the monotone
// aggregation function, the member objects of the cached top k, the
// k-th (smallest) result grade, and the per-atom source epochs read
// before the sources were materialized.
func NewEntry(payload any, saved cost.Cost, atoms []AtomRef, f agg.Func, members []int, kthGrade float64, epochs []uint64) *Entry {
	ms := make(map[int]struct{}, len(members))
	for _, o := range members {
		ms[o] = struct{}{}
	}
	return &Entry{
		Payload:   payload,
		SavedCost: saved,
		Atoms:     atoms,
		agg:       f,
		kthGrade:  kthGrade,
		epochs:    epochs,
		members:   ms,
		known:     make(map[int][]float64),
	}
}

// Revalidate brings the entry up to the subsystems' current epochs,
// replaying the missed updates through the threshold survival test (see
// the package comment). currentEpoch and updatesSince answer for the
// atom at the given index; atomsOf maps one update to the atom indices
// it touches (an update names a target; only atoms on that target are
// affected). It reports whether the entry survived; a false return has
// marked the entry dead and the caller must drop it.
func (e *Entry) Revalidate(
	currentEpoch func(i int) uint64,
	updatesSince func(i int, since uint64) ([]subsys.Update, bool),
	atomsOf func(i int, u subsys.Update) bool,
) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return false
	}
	for i := range e.Atoms {
		cur := currentEpoch(i)
		if cur == e.epochs[i] {
			continue
		}
		ups, ok := updatesSince(i, e.epochs[i])
		if !ok {
			e.dead = true
			return false
		}
		for _, u := range ups {
			if !atomsOf(i, u) {
				continue // different target on the same subsystem
			}
			if !e.survives(i, u) {
				e.dead = true
				return false
			}
		}
		e.epochs[i] = cur
	}
	return true
}

// Dead reports whether the entry failed a revalidation (it may still be
// briefly reachable from the LRU until the cache drops it).
func (e *Entry) Dead() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dead
}

// EpochSum is the sum of the per-atom source epochs the entry is
// currently valid at: a monotone fingerprint of the data version the
// cached answer reflects.
func (e *Entry) EpochSum() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum uint64
	for _, ep := range e.epochs {
		sum += ep
	}
	return sum
}

// survives applies one update to atom i under e.mu: false means the
// update could disturb the cached top k.
func (e *Entry) survives(i int, u subsys.Update) bool {
	if _, member := e.members[u.Object]; member {
		// A member's grade moved (no-op updates are never journaled):
		// its cached aggregate, and possibly the ordering, is stale.
		return false
	}
	v, tracked := e.known[u.Object]
	if !tracked && len(e.known) < maxTracked {
		v = make([]float64, len(e.Atoms))
		for j := range v {
			v[j] = -1
		}
		e.known[u.Object] = v
		tracked = true
	}
	if tracked {
		v[i] = u.New
	}
	if u.New <= u.Old {
		// Lowering a non-member cannot lift it past the k-th grade
		// (monotonicity), and no member grade moved.
		return true
	}
	// A raise: bound the object's new aggregate with everything known
	// about its grades — the raised grade on this list, exact grades
	// earlier updates revealed, 1 elsewhere — and require it strictly
	// below the k-th cached grade.
	bound := make([]float64, len(e.Atoms))
	for j := range bound {
		bound[j] = 1
		if tracked && v[j] >= 0 {
			bound[j] = v[j]
		}
	}
	if !tracked {
		bound[i] = u.New
	}
	return e.agg.Apply(bound) < e.kthGrade
}

// Stats are the cache's cumulative counters.
type Stats struct {
	// Hits is the number of lookups served from the cache (after
	// surviving revalidation).
	Hits uint64
	// Misses is the number of lookups that had to recompute: absent
	// keys plus entries dropped by revalidation.
	Misses uint64
	// Stores is the number of entries inserted.
	Stores uint64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions uint64
	// Invalidations counts entries dropped because an update could have
	// disturbed them (failed revalidation) or by an explicit
	// invalidate-all.
	Invalidations uint64
}

// DefaultSize is the entry bound used when a cache is built with a
// non-positive capacity.
const DefaultSize = 256

// Cache is a bounded, concurrency-safe LRU over cached computations.
// All methods are safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *lruItem, front = most recent
	items map[Key]*list.Element
	stats Stats
}

type lruItem struct {
	key   Key
	entry *Entry
}

// New builds a cache bounded to capacity entries (DefaultSize when
// non-positive).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultSize
	}
	return &Cache{cap: capacity, lru: list.New(), items: make(map[Key]*list.Element)}
}

// Cap returns the capacity bound.
func (c *Cache) Cap() int { return c.cap }

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Get looks up key and, when present, runs validate on the entry
// outside the cache lock (concurrent lookups on other keys proceed).
// A validated entry counts a hit and refreshes its LRU position; a
// failed validation drops the entry and counts an invalidation plus a
// miss. validate may be nil for lookups that need no revalidation.
func (c *Cache) Get(key Key, validate func(*Entry) bool) (*Entry, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*lruItem).entry
	c.mu.Unlock()

	alive := validate == nil || validate(e)

	c.mu.Lock()
	defer c.mu.Unlock()
	if !alive {
		c.stats.Misses++
		if el2, still := c.items[key]; still && el2.Value.(*lruItem).entry == e {
			c.stats.Invalidations++
			c.lru.Remove(el2)
			delete(c.items, key)
		}
		return nil, false
	}
	c.stats.Hits++
	if el2, still := c.items[key]; still && el2.Value.(*lruItem).entry == e {
		c.lru.MoveToFront(el2)
	}
	return e, true
}

// Put inserts (or replaces) the entry for key, evicting from the LRU
// tail past the capacity bound.
func (c *Cache) Put(key Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Stores++
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).entry = e
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&lruItem{key: key, entry: e})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		it := tail.Value.(*lruItem)
		c.lru.Remove(tail)
		delete(c.items, it.key)
		c.stats.Evictions++
	}
}

// Invalidate drops every entry, counting them as invalidations.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Invalidations += uint64(c.lru.Len())
	c.lru.Init()
	c.items = make(map[Key]*list.Element)
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
