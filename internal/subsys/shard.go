package subsys

import (
	"sync"

	"fuzzydb/internal/gradedset"
)

// ShardRange is one contiguous slice [Lo, Hi) of the dense universe
// {0,…,N−1}: the unit of partitioned evaluation. Shards are disjoint and
// cover the universe, so every object belongs to exactly one shard.
type ShardRange struct {
	// Lo is the first global object id of the shard.
	Lo int
	// Hi is one past the last global object id of the shard.
	Hi int
}

// Len returns the number of objects in the shard.
func (r ShardRange) Len() int { return r.Hi - r.Lo }

// PlanShards splits the dense universe {0,…,n−1} into p contiguous
// ranges of near-equal size (the first n mod p shards hold one extra
// object). p < 1 is treated as 1, and p is clamped to n (floored at 1)
// so the plan never contains a zero-width trailing shard: every planned
// range is non-empty, and callers allocating a ShardView plus scratch
// per range never pay for shards that could not hold an object. Its
// callers are core.EvaluateSharded and tests; ROADMAP 4(a) moves it into
// internal/sim with them.
func PlanShards(n, p int) []ShardRange {
	if p < 1 {
		p = 1
	}
	if n < 0 {
		n = 0
	}
	if p > n {
		if p = n; p < 1 {
			p = 1 // empty universe: one empty range, not p of them
		}
	}
	out := make([]ShardRange, p)
	base, rem := n/p, n%p
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = ShardRange{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// ShardView is a re-ranked view of a parent source restricted to the
// objects of one contiguous range: the graded list the shard's subsystem
// would have produced had it only indexed those objects. Objects are
// renumbered to the local dense universe {0,…,Hi−Lo−1} (local id =
// global id − Lo), so the view reports a dense universe of its own and
// every downstream layer — pooled grade memos, flat-array scratch —
// stays on the fast path without any per-query O(N) copy of the parent.
//
// Sorted order is inherited: the view's rank order is the subsequence of
// the parent's canonical order (descending grade, ascending id on ties)
// whose objects fall in the range, discovered lazily by scanning the
// parent's entries forward as deeper local ranks are demanded. Because
// renumbering subtracts a constant, the parent's tie order restricted to
// the shard is exactly the canonical tie order on local ids.
//
// A view performs read-only operations on the parent (sorted and random
// reads through its resolved fallible face, see FacesOf), so the P views
// of one parent may be driven from P shard workers concurrently provided
// the parent is immutable under reads — true of ListSource and every
// built-in subsystem. The lazy re-ranking scan is internally
// synchronized, so a view tolerates concurrent reads itself, and
// returned Entries spans stay valid across concurrent growth: the prefix
// only ever appends.
//
// The view assumes the parent honors the dense-universe contract
// (objects are exactly {0,…,N−1}); an out-of-range object would belong
// to no shard, leaving some view short of its range, which the consumer
// then records as a failure. Wrap untrusted sources with Validated
// before sharding them.
//
// Its callers are core.EvaluateSharded (through ShardSources) and tests;
// ROADMAP 4(a) moves it into internal/sim with them.
type ShardView struct {
	inner     // the parent
	r         ShardRange
	parentLen int

	mu      sync.Mutex        // guards entries/scanned (lazy re-ranking)
	entries []gradedset.Entry // local-id entries in shard rank order
	scanned int               // parent ranks examined so far
}

// NewShardView builds the shard's re-ranked view of parent.
func NewShardView(parent Source, r ShardRange) *ShardView {
	return &ShardView{inner: wrapping(parent), r: r, parentLen: parent.Len()}
}

// ShardSources builds one view per parent source for the given range.
// Like every wrapper a view always exposes the fallible face (and fails
// only where its parent does), so a per-shard Counted detects and
// routes around failures the same way an unsharded one does; fault
// sites stay keyed on the parent's global ranks and object ids. Its
// callers are core.EvaluateSharded and tests; ROADMAP 4(a) moves it into
// internal/sim with them.
func ShardSources(parents []Source, r ShardRange) []Source {
	out := make([]Source, len(parents))
	for i, p := range parents {
		out[i] = NewShardView(p, r)
	}
	return out
}

// Len implements Source: the number of objects in the shard.
func (s *ShardView) Len() int { return s.r.Len() }

// Universe implements UniverseHinter: a shard view is always dense over
// its local ids.
func (s *ShardView) Universe() (int, bool) { return s.r.Len(), true }

// fill extends the re-ranked prefix to at least n local entries (or the
// shard's end), scanning the parent's sorted entries forward in chunks
// sized to the expected stride between in-range objects. Whatever
// partial span arrives before a parent failure is absorbed, so the
// prefix ends exactly at the re-ranked entries the parent managed to
// deliver; a parent span short of the chunk without an error is the
// failure errShortSpan. Callers hold s.mu.
func (s *ShardView) fill(n int) error {
	if n > s.r.Len() {
		n = s.r.Len()
	}
	for len(s.entries) < n && s.scanned < s.parentLen {
		// Expected parent entries per in-range hit is parentLen/shardLen;
		// scan a chunk sized for the remaining deficit, floored so tiny
		// deficits still amortize the virtual call.
		deficit := n - len(s.entries)
		stride := (s.parentLen + s.r.Len() - 1) / s.r.Len()
		chunk := deficit * stride
		if chunk < 64 {
			chunk = 64
		}
		hi := s.scanned + chunk
		if hi > s.parentLen {
			hi = s.parentLen
		}
		span, err := s.in.Try.TryEntries(s.scanned, hi)
		if err == nil && len(span) < hi-s.scanned {
			err = errShortSpan
		}
		for _, e := range span {
			if e.Object >= s.r.Lo && e.Object < s.r.Hi {
				s.entries = append(s.entries, gradedset.Entry{Object: e.Object - s.r.Lo, Grade: e.Grade})
			}
		}
		s.scanned += len(span)
		if err != nil {
			return err
		}
	}
	return nil
}

// Entry implements Source: the shard's entry at the given local rank,
// the zero entry when the view's stream ends before it.
func (s *ShardView) Entry(rank int) gradedset.Entry {
	e, _ := s.TryEntry(rank)
	return e
}

// Entries implements Source: TryEntries without the error.
func (s *ShardView) Entries(lo, hi int) []gradedset.Entry {
	span, _ := s.TryEntries(lo, hi)
	return span
}

// Grade implements Source: random access by local id, translated to the
// parent's global id.
func (s *ShardView) Grade(obj int) float64 { return s.in.Src.Grade(obj + s.r.Lo) }

// TryEntry implements FallibleSource.
func (s *ShardView) TryEntry(rank int) (gradedset.Entry, error) {
	return oneEntry(s.TryEntries(rank, rank+1))
}

// TryEntries implements FallibleSource: the shard's entries at local
// ranks [lo, hi), and on a terminal parent failure the local ranks
// obtained before it plus the error. The returned slice must not be
// mutated. It remains valid under concurrent calls: growth only appends
// (within capacity it writes indices past every previously returned
// span; on reallocation the old backing array is left untouched).
func (s *ShardView) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.fill(hi)
	// A parent that breaks the dense-universe contract leaves the view
	// short of r.Len() entries once fully scanned: clamp instead of
	// overrunning, and the consumer records the short span as a failure.
	if n := len(s.entries); hi > n {
		hi = n
		if lo > hi {
			lo = hi
		}
	}
	return s.entries[lo:hi], err
}

// TryGrade implements FallibleSource, translated to the parent's global
// id (so random fault sites are shard-independent).
func (s *ShardView) TryGrade(obj int) (float64, error) {
	return s.in.Try.TryGrade(obj + s.r.Lo)
}

// TryGrades implements BatchGrader when the parent does: batched random
// access by local id, translated to the parent's global ids like Grade.
func (s *ShardView) TryGrades(objs []int, out []float64) (int, error) {
	global := make([]int, len(objs))
	for i, obj := range objs {
		global[i] = obj + s.r.Lo
	}
	return s.in.Batch.TryGrades(global, out)
}

// Scanned reports how many parent ranks the lazy re-ranking has
// examined: the scan cost of the view so far (comparisons, not metered
// accesses). Exposed for tests and instrumentation.
func (s *ShardView) Scanned() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanned
}
