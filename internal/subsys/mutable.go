package subsys

import (
	"fmt"
	"sync"

	"fuzzydb/internal/gradedset"
)

// Update is one versioned grade change on a subsystem: at sequence Seq
// the grade of Object under Target went from Old to New. Updates are the
// currency of cheap cache invalidation — a consumer that knows which
// grades moved, and by how much, can prove most of its cached answers
// undisturbed instead of dropping them all.
type Update struct {
	// Seq is the subsystem epoch this update created: the first update
	// ever applied has Seq 1, and the subsystem's Epoch equals the Seq of
	// its latest change.
	Seq uint64
	// Target names the graded list the update touched.
	Target string
	// Object is the regraded object.
	Object int
	// Old and New are the object's grades before and after. No-op
	// updates (Old == New) are never journaled.
	Old, New float64
}

// Versioned is the optional capability of a Subsystem whose grades can
// change after construction. Epoch is a monotone version counter over
// the whole subsystem (all targets); UpdatesSince replays the changes a
// consumer missed, so it can revalidate derived state (cached top-k
// answers) instead of rebuilding it.
//
// Subsystems that do not implement Versioned are immutable by contract:
// consumers may treat their epoch as permanently 0.
type Versioned interface {
	// Epoch returns the current version: 0 before any change, and
	// monotonically increasing with each one.
	Epoch() uint64
	// UpdatesSince returns every update with Seq > since in order. ok is
	// false when the journal no longer reaches back that far — the
	// changes since are unknown (journal overflow, or a wholesale list
	// replacement that no per-object delta describes) and the consumer
	// must assume everything moved.
	UpdatesSince(since uint64) ([]Update, bool)
}

// DefaultJournalDepth is how many updates a Mutable subsystem keeps for
// UpdatesSince replay before overflowing.
const DefaultJournalDepth = 1024

// Mutable serves precomputed graded lists per target, like Static, but
// its grades can change after construction: UpdateGrade swaps in the
// updated list (gradedset.List.Updated: the parent's flat base shared,
// plus an overlay of at most ⌈√N⌉ moved entries) under a write lock,
// bumps the subsystem epoch, and journals the change for Versioned
// replay. Query returns an immutable snapshot — evaluations and
// streaming cursors in flight keep reading the list they started on,
// untouched by later updates.
type Mutable struct {
	attr       string
	n          int
	journalCap int

	mu       sync.RWMutex
	lists    map[string]*gradedset.List
	epoch    uint64
	floor    uint64             // UpdatesSince(since) with since < floor is unanswerable
	journal  []Update           // ring of journalCap slots: Seq s lives at s % journalCap
	sketches map[string]*Sketch // lazily built; dropped by Set, shifted by UpdateGrade
}

// NewMutable builds a mutable subsystem over an n-object universe.
// journalDepth bounds the update journal kept for Versioned replay
// (0 means DefaultJournalDepth).
func NewMutable(attr string, n, journalDepth int) *Mutable {
	if journalDepth <= 0 {
		journalDepth = DefaultJournalDepth
	}
	return &Mutable{
		attr:       attr,
		n:          n,
		journalCap: journalDepth,
		lists:      make(map[string]*gradedset.List),
		sketches:   make(map[string]*Sketch),
	}
}

// Attribute implements Subsystem.
func (m *Mutable) Attribute() string { return m.attr }

// Size implements Subsystem.
func (m *Mutable) Size() int { return m.n }

// Set registers (or wholesale-replaces) the graded list returned for
// target. A replacement is not expressible as per-object deltas, so Set
// bumps the epoch and poisons the journal: UpdatesSince from any
// earlier epoch answers ok=false and consumers rebuild.
func (m *Mutable) Set(target string, l *gradedset.List) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lists[target] = l
	m.epoch++
	m.floor = m.epoch
	delete(m.sketches, target)
}

// UpdateGrade changes the grade of obj under target to g: the
// previously served snapshots are untouched, the next Query sees the
// new list, the epoch advances, and the change is journaled. A cached
// sketch of the target is replaced by one whose bucket holding obj
// carries the moved mass (g − old) — O(buckets), where rebuilding it
// would be an O(N) pass on the next sharded query. A no-op update (the
// grade already is g) changes nothing, not even the epoch.
func (m *Mutable) UpdateGrade(target string, obj int, g float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.lists[target]
	if !ok {
		return fmt.Errorf("%w: %q for attribute %q", ErrUnknownTarget, target, m.attr)
	}
	old, err := l.Grade(obj)
	if err != nil {
		return fmt.Errorf("attribute %q target %q: %w", m.attr, target, err)
	}
	if old == g {
		return nil
	}
	nl, err := l.Updated(obj, g)
	if err != nil {
		return fmt.Errorf("attribute %q target %q: %w", m.attr, target, err)
	}
	m.lists[target] = nl
	m.epoch++
	if sk, ok := m.sketches[target]; ok {
		m.sketches[target] = sk.withMoved(obj, g-old)
	}
	if m.journal == nil {
		m.journal = make([]Update, m.journalCap)
	}
	m.journal[m.epoch%uint64(m.journalCap)] = Update{Seq: m.epoch, Target: target, Object: obj, Old: old, New: g}
	if m.epoch-m.floor > uint64(m.journalCap) {
		// The slot just written held the oldest update.
		m.floor = m.epoch - uint64(m.journalCap)
	}
	return nil
}

// Query implements Subsystem: an immutable snapshot of the target's
// current list. Updates applied after Query never affect the returned
// source.
func (m *Mutable) Query(target string) (Source, error) {
	m.mu.RLock()
	l, ok := m.lists[target]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q for attribute %q", ErrUnknownTarget, target, m.attr)
	}
	return FromList(l), nil
}

// GradeSketch implements GradeSketcher: the sketch of the target's
// current list, built on first request and kept current by the updates
// that touch the target — UpdateGrade moves the written object's mass
// between buckets of a new sketch (exact per-bucket mass over the
// first build's cuts), Set drops it for a rebuild — so a planner never
// cuts the universe against stale grade mass. Planning metadata, never
// metered. Unknown targets yield nil.
func (m *Mutable) GradeSketch(target string) *Sketch {
	m.mu.RLock()
	sk, ok := m.sketches[target]
	m.mu.RUnlock()
	if ok {
		return sk
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if sk, ok := m.sketches[target]; ok {
		return sk
	}
	l, ok := m.lists[target]
	if !ok {
		return nil
	}
	sk = SketchList(l)
	m.sketches[target] = sk
	return sk
}

// Epoch implements Versioned.
func (m *Mutable) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// UpdatesSince implements Versioned: the journaled updates with
// Seq > since, in order. ok is false when since predates the journal
// (overflow or a Set replacement) — the caller must assume anything may
// have changed.
func (m *Mutable) UpdatesSince(since uint64) ([]Update, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if since >= m.epoch {
		return nil, true
	}
	if since < m.floor {
		return nil, false
	}
	// Seqs since+1 … epoch, at most two runs of the ring.
	out := make([]Update, m.epoch-since)
	c := uint64(m.journalCap)
	n := copy(out, m.journal[(since+1)%c:])
	copy(out[n:], m.journal)
	return out, true
}
