package scoredb

import (
	"fmt"
	"sync"

	"fuzzydb/internal/gradedset"
)

// Mutable is a scoring database whose grades can change after
// construction: the live-data twin of Database. Each UpdateGrade swaps
// in the updated list (gradedset.List.Updated: the old list's flat base
// shared, plus an overlay of at most ⌈√N⌉ moved entries) and bumps
// that list's epoch — a monotone per-source version counter — so
// consumers holding derived state (cached top-k answers, materialized
// snapshots) can detect exactly which source moved and revalidate
// instead of rebuilding. List returns the current immutable snapshot:
// evaluations in flight keep the list they started on.
type Mutable struct {
	mu     sync.RWMutex
	n      int
	lists  []*gradedset.List
	epochs []uint64
}

// NewMutable wraps a validated database for in-place grade updates. The
// source database is not retained; its lists become the initial
// snapshots (at epoch 0 each).
func NewMutable(db *Database) *Mutable {
	lists := make([]*gradedset.List, db.M())
	copy(lists, db.Lists())
	return &Mutable{n: db.N(), lists: lists, epochs: make([]uint64, len(lists))}
}

// N returns the number of objects.
func (d *Mutable) N() int { return d.n }

// M returns the number of lists.
func (d *Mutable) M() int {
	return len(d.lists)
}

// List returns the current immutable snapshot of the i-th list.
func (d *Mutable) List(i int) *gradedset.List {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lists[i]
}

// Epoch returns the i-th list's version: 0 before any update, bumped by
// each effective one.
func (d *Mutable) Epoch(i int) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epochs[i]
}

// UpdateGrade changes the grade of obj in the given list to g:
// previously returned snapshots are untouched, the next
// List call sees the new data, and the list's epoch advances. A no-op
// update (the grade already is g) changes nothing, not even the epoch.
func (d *Mutable) UpdateGrade(list, obj int, g float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if list < 0 || list >= len(d.lists) {
		return fmt.Errorf("%w: no list %d", ErrShape, list)
	}
	l := d.lists[list]
	old, err := l.Grade(obj)
	if err != nil {
		return fmt.Errorf("list %d: %w", list, err)
	}
	if old == g {
		return nil
	}
	nl, err := l.Updated(obj, g)
	if err != nil {
		return fmt.Errorf("list %d: %w", list, err)
	}
	d.lists[list] = nl
	d.epochs[list]++
	return nil
}

// Snapshot returns the current state as an immutable Database sharing
// the current list snapshots.
func (d *Mutable) Snapshot() (*Database, error) {
	d.mu.RLock()
	lists := make([]*gradedset.List, len(d.lists))
	copy(lists, d.lists)
	d.mu.RUnlock()
	return New(lists)
}
