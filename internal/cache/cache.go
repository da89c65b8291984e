package cache

import (
	"container/list"
	"errors"
	"slices"
	"sync"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// Key identifies a cacheable request: the normalized query (its
// canonical AST string after rewrite), the answer count, the algorithm
// and aggregation law that computed it, and the execution shape fields
// that change what a report carries (prefetch, parallelism).
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
	// Parallelism and Prefetch pin the execution shape: reports carry a
	// shape-dependent section (pipeline stats), so a hit must come from
	// the same shape. Prefetch is -1 when the request did not ask for the
	// pipelined executor, else the requested depth.
	Parallelism int
	Prefetch    int
}

// AtomRef names one source list an entry depends on: the (attribute,
// target) pair of a planned atom.
type AtomRef struct {
	Attr   string
	Target string
}

// maxTracked bounds the per-entry map of updated-object grade
// knowledge. Beyond it, revalidation still runs (with unknown grades
// bounded by 1, and a probe reading every grade of an untracked object)
// but stops refining — sound, just less sharp.
const maxTracked = 4096

// Verdict is what revalidation concluded about an entry.
type Verdict uint8

const (
	// Fresh: no replayed update can disturb the cached answer; it is
	// served as a hit.
	Fresh Verdict = iota
	// Repair: raised objects could enter or reorder the cached answer.
	// The Probe names them; once it has read their missing grades, the
	// top k of the cached answer and those objects is the answer.
	Repair
	// Dead: the answer cannot be mended from what the entry knows (a
	// member was lowered, or the journal cannot replay); the request
	// recomputes.
	Dead
)

func (v Verdict) String() string {
	switch v {
	case Fresh:
		return "fresh"
	case Repair:
		return "repair"
	}
	return "dead"
}

// ErrTie is why a probe gives up: a probed grade at or above the new
// k-th grade ties another grade of the merged answer, where the
// recompute might break the tie another way.
var ErrTie = errors.New("cache: a repaired grade ties at or above the k-th grade")

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

	agg     agg.Func
	top     []gradedset.Entry // the cached answer, best first
	members map[int]struct{}  // the objects of top

	mu     sync.Mutex
	dead   bool
	epochs []uint64          // per-atom source epoch the entry is valid at
	known  map[int][]float64 // updated objects: known grade per atom, -1 unknown
}

// NewEntry builds a cache entry: payload and saved cost to serve on a
// hit, and the revalidation inputs — the atoms read, the monotone
// aggregation function, the cached top k with its grades (best first;
// the last grade is the k-th), and the per-atom source epochs read
// before the sources were materialized. The entry owns top and epochs.
func NewEntry(payload any, saved cost.Cost, atoms []AtomRef, f agg.Func, top []gradedset.Entry, epochs []uint64) *Entry {
	ms := make(map[int]struct{}, len(top))
	for _, r := range top {
		ms[r.Object] = struct{}{}
	}
	return &Entry{
		Payload:   payload,
		SavedCost: saved,
		Atoms:     atoms,
		agg:       f,
		top:       top,
		members:   ms,
		epochs:    epochs,
		known:     make(map[int][]float64),
	}
}

// Revalidate brings the entry up to the subsystems' current epochs,
// replaying the missed updates through the rules of the package comment.
// currentEpoch and updatesSince answer for the atom at the given index;
// atomsOf maps one update to the atom indices it touches (an update
// names a target; only atoms on that target are affected).
//
// Fresh advances the entry's stamps. Dead marks the entry dead; the
// caller drops it. Repair leaves the entry as it was and returns the
// Probe that mends it: the raised objects, what the journal says about
// their grades, and the epochs the replay reached.
func (e *Entry) Revalidate(
	currentEpoch func(i int) uint64,
	updatesSince func(i int, since uint64) ([]subsys.Update, bool),
	atomsOf func(i int, u subsys.Update) bool,
) (Verdict, *Probe) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return Dead, nil
	}
	var reached []uint64 // the stamps the replay reaches, once one moves
	var raised map[int]struct{}
	for i := range e.Atoms {
		cur := currentEpoch(i)
		if cur == e.epochs[i] {
			continue
		}
		ups, ok := updatesSince(i, e.epochs[i])
		if !ok {
			e.dead = true
			return Dead, nil
		}
		for _, u := range ups {
			if !atomsOf(i, u) {
				continue // different target on the same subsystem
			}
			switch e.replay(i, u) {
			case Dead:
				e.dead = true
				return Dead, nil
			case Repair:
				if raised == nil {
					raised = make(map[int]struct{})
				}
				raised[u.Object] = struct{}{}
			}
		}
		if reached == nil {
			reached = slices.Clone(e.epochs)
		}
		reached[i] = cur
	}
	if raised == nil {
		if reached != nil {
			e.epochs = reached
		}
		return Fresh, nil
	}
	return Repair, e.probe(raised, reached)
}

// Dead reports whether the entry got a dead verdict or a failed repair
// (it may still be briefly reachable from the LRU until the cache drops
// it).
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

// replay applies one update to atom i under e.mu.
func (e *Entry) replay(i int, u subsys.Update) Verdict {
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
	_, member := e.members[u.Object]
	if u.New <= u.Old {
		// A lowered member may fall out of the top k, and nothing the
		// entry knows names the object that would replace it. A lowered
		// non-member cannot rise past the k-th grade (monotonicity).
		if member {
			return Dead
		}
		return Fresh
	}
	if member {
		// A raised member moves up, and only its own grades say how far.
		return Repair
	}
	// A raised non-member: bound its new aggregate with everything known
	// about its grades — the raised grade on this list, exact grades
	// earlier updates revealed, 1 elsewhere — and let it stand outside
	// only strictly below the k-th cached grade.
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
	if e.agg.Apply(bound) < e.top[len(e.top)-1].Grade {
		return Fresh
	}
	return Repair
}

// probe captures, under e.mu, what a repair needs: the raised objects in
// ascending order with the grades the journal states for them.
func (e *Entry) probe(raised map[int]struct{}, reached []uint64) *Probe {
	m := len(e.Atoms)
	p := &Probe{e: e, epochs: reached, objects: make([]int, 0, len(raised)), grades: make([]float64, len(raised)*m)}
	for o := range raised {
		p.objects = append(p.objects, o)
	}
	slices.Sort(p.objects)
	for j, o := range p.objects {
		row := p.grades[j*m : (j+1)*m]
		if v, ok := e.known[o]; ok {
			copy(row, v)
		} else {
			for i := range row {
				row[i] = -1
			}
		}
	}
	return p
}

// Probe is the work a Repair verdict leaves to its caller: read the
// grades of the raised objects that the journal does not state, then
// merge. A Probe belongs to one lookup.
type Probe struct {
	e       *Entry
	epochs  []uint64  // the epochs the replay reached
	objects []int     // the raised objects, ascending
	grades  []float64 // grades[j*m+i]: objects[j] on atom i, -1 unknown
}

// Run reads the missing grades and returns the repaired answer: the top
// k of the cached answer and the probed objects, under the entry's
// aggregation function and the canonical order. read is called once per
// atom that has a gap, with the objects to grade (ascending) and a
// column to fill, col[t] for objs[t]; its error ends the probe. Run
// returns ErrTie when a probed grade at or above the new k-th grade
// ties another grade of the merged answer.
func (p *Probe) Run(read func(i int, objs []int, col []float64) error) ([]gradedset.Entry, error) {
	m := len(p.e.Atoms)
	var objs, at []int
	var col []float64
	for i := 0; i < m; i++ {
		objs, at = objs[:0], at[:0]
		for j, o := range p.objects {
			if p.grades[j*m+i] < 0 {
				objs, at = append(objs, o), append(at, j)
			}
		}
		if len(objs) == 0 {
			continue
		}
		col = slices.Grow(col[:0], len(objs))[:len(objs)]
		if err := read(i, objs, col); err != nil {
			return nil, err
		}
		for t, j := range at {
			p.grades[j*m+i] = col[t]
		}
	}
	pool := make([]gradedset.Entry, 0, len(p.e.top)+len(p.objects))
	for _, r := range p.e.top {
		if _, probed := slices.BinarySearch(p.objects, r.Object); !probed {
			pool = append(pool, r)
		}
	}
	probed := len(pool)
	for j, o := range p.objects {
		pool = append(pool, gradedset.Entry{Object: o, Grade: p.e.agg.Apply(p.grades[j*m : (j+1)*m])})
	}
	top := gradedset.TopK(pool, len(p.e.top))
	kth := top[len(top)-1].Grade
	for _, c := range pool[probed:] {
		if c.Grade < kth {
			continue
		}
		for _, r := range pool {
			if r.Grade == c.Grade && r.Object != c.Object {
				return nil, ErrTie
			}
		}
	}
	return top, nil
}

// Entry builds the repaired entry: payload and the answer Run returned,
// the original computation's saved cost, stamped at the epochs the
// replay reached.
func (p *Probe) Entry(payload any, top []gradedset.Entry) *Entry {
	return NewEntry(payload, p.e.SavedCost, p.e.Atoms, p.e.agg, top, p.epochs)
}

// Stats are the cache's cumulative counters.
type Stats struct {
	// Hits is the number of lookups served from the cache (after
	// surviving revalidation).
	Hits uint64
	// Misses is the number of lookups not served as hits: absent keys,
	// entries dropped by revalidation, and entries sent to repair.
	Misses uint64
	// Repairs is the number of misses a repair answered, each replacing
	// its entry with the repaired one. Counted inside Misses.
	Repairs uint64
	// Stores is the number of entries inserted by recomputes.
	Stores uint64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions uint64
	// Invalidations counts entries dropped because an update could have
	// disturbed them (a dead verdict, or a repair that failed) or by an
	// explicit invalidate-all.
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
// outside the cache lock (concurrent lookups on other keys proceed),
// returning the entry with validate's verdict. A fresh entry counts a
// hit and refreshes its LRU position; a dead one is dropped and counts
// an invalidation plus a miss; a repair counts a miss and leaves the
// entry where it is, for Repaired or Drop to settle. An absent key is
// a miss and reads as Dead. validate may be nil for lookups that need no
// revalidation.
func (c *Cache) Get(key Key, validate func(*Entry) Verdict) (*Entry, Verdict) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, Dead
	}
	e := el.Value.(*lruItem).entry
	c.mu.Unlock()

	v := Fresh
	if validate != nil {
		v = validate(e)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	switch v {
	case Fresh:
		c.stats.Hits++
		if el2, still := c.items[key]; still && el2.Value.(*lruItem).entry == e {
			c.lru.MoveToFront(el2)
		}
	case Dead:
		c.stats.Misses++
		c.remove(key, e)
	default:
		c.stats.Misses++
	}
	return e, v
}

// Repaired puts the repaired entry under key, in place of the entry the
// repair started from, and counts a repair.
func (c *Cache) Repaired(key Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Repairs++
	c.put(key, e)
}

// Drop marks e dead and removes it from under key, if it is still
// there, counting an invalidation: what a repair that failed does with
// the entry it started from.
func (c *Cache) Drop(key Key, e *Entry) {
	e.mu.Lock()
	e.dead = true
	e.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remove(key, e)
}

// remove drops e from under key, if it is still there, counting an
// invalidation; c.mu is held.
func (c *Cache) remove(key Key, e *Entry) {
	if el, still := c.items[key]; still && el.Value.(*lruItem).entry == e {
		c.stats.Invalidations++
		c.lru.Remove(el)
		delete(c.items, key)
	}
}

// Put inserts (or replaces) the entry for key, evicting from the LRU
// tail past the capacity bound.
func (c *Cache) Put(key Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Stores++
	c.put(key, e)
}

// put is Put without the count; c.mu is held.
func (c *Cache) put(key Key, e *Entry) {
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
