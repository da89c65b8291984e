package subsys

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzydb/internal/gradedset"
)

func mutableFixture(t *testing.T) *Mutable {
	t.Helper()
	l, err := gradedset.NewList([]gradedset.Entry{
		{Object: 0, Grade: 0.9},
		{Object: 1, Grade: 0.6},
		{Object: 2, Grade: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable("A", 3, 4)
	m.Set("*", l)
	return m
}

func TestMutableSnapshotIsolation(t *testing.T) {
	m := mutableFixture(t)
	before, err := m.Query("*")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateGrade("*", 2, 0.95); err != nil {
		t.Fatal(err)
	}
	// The snapshot taken before the update still reads the old data.
	if g := before.Grade(2); g != 0.3 {
		t.Fatalf("snapshot grade(2) = %g, want 0.3", g)
	}
	if before.Entry(0).Object != 0 {
		t.Fatalf("snapshot top = %v, want object 0", before.Entry(0))
	}
	after, err := m.Query("*")
	if err != nil {
		t.Fatal(err)
	}
	if g := after.Grade(2); g != 0.95 {
		t.Fatalf("fresh snapshot grade(2) = %g, want 0.95", g)
	}
	if after.Entry(0) != (gradedset.Entry{Object: 2, Grade: 0.95}) {
		t.Fatalf("fresh snapshot top = %v", after.Entry(0))
	}
}

func TestMutableEpochAndJournal(t *testing.T) {
	m := mutableFixture(t)
	base := m.Epoch() // Set bumps the epoch; record the baseline
	if ups, ok := m.UpdatesSince(base); !ok || len(ups) != 0 {
		t.Fatalf("UpdatesSince(current) = %v, %v", ups, ok)
	}
	if err := m.UpdateGrade("*", 0, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateGrade("*", 1, 0.8); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != base+2 {
		t.Fatalf("epoch = %d, want %d", got, base+2)
	}
	ups, ok := m.UpdatesSince(base)
	if !ok || len(ups) != 2 {
		t.Fatalf("UpdatesSince(%d) = %v, %v", base, ups, ok)
	}
	want0 := Update{Seq: base + 1, Target: "*", Object: 0, Old: 0.9, New: 0.1}
	if ups[0] != want0 {
		t.Fatalf("update 0 = %+v, want %+v", ups[0], want0)
	}
	// No-op updates are invisible: same grade, no epoch, no journal entry.
	if err := m.UpdateGrade("*", 1, 0.8); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != base+2 {
		t.Fatalf("no-op bumped epoch to %d", got)
	}
}

func TestMutableJournalOverflow(t *testing.T) {
	m := mutableFixture(t) // journal depth 4
	base := m.Epoch()
	for i := 0; i < 6; i++ {
		if err := m.UpdateGrade("*", 0, float64(i+1)/10); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.UpdatesSince(base); ok {
		t.Fatal("overflowed journal still claims full replay")
	}
	if ups, ok := m.UpdatesSince(base + 2); !ok || len(ups) != 4 {
		t.Fatalf("UpdatesSince(base+2) = %d updates, ok=%v; want 4, true", len(ups), ok)
	}
}

// TestMutableJournalRing pins the ring's replay window: after three
// times its depth of writes, UpdatesSince replays exactly the last depth
// updates in order, and one epoch earlier it answers ok=false.
func TestMutableJournalRing(t *testing.T) {
	const depth = 4
	m := mutableFixture(t) // journal depth 4
	var all []Update
	for i := 0; i < 3*depth; i++ {
		obj, g := i%3, float64(i+1)/16
		old, _ := m.lists["*"].Grade(obj)
		if err := m.UpdateGrade("*", obj, g); err != nil {
			t.Fatal(err)
		}
		all = append(all, Update{Seq: m.Epoch(), Target: "*", Object: obj, Old: old, New: g})
	}
	ups, ok := m.UpdatesSince(m.Epoch() - depth)
	if !ok || !slices.Equal(ups, all[len(all)-depth:]) {
		t.Fatalf("UpdatesSince(epoch−%d) = %+v, %v; want %+v", depth, ups, ok, all[len(all)-depth:])
	}
	for since := m.Epoch() - depth; since < m.Epoch(); since++ {
		ups, ok := m.UpdatesSince(since)
		if want := all[len(all)-int(m.Epoch()-since):]; !ok || !slices.Equal(ups, want) {
			t.Fatalf("UpdatesSince(%d) = %+v, %v; want %+v", since, ups, ok, want)
		}
	}
	if _, ok := m.UpdatesSince(m.Epoch() - depth - 1); ok {
		t.Fatal("UpdatesSince one epoch past the ring still claims full replay")
	}
}

func TestMutableSetPoisonsJournal(t *testing.T) {
	m := mutableFixture(t)
	base := m.Epoch()
	l, err := gradedset.NewList([]gradedset.Entry{
		{Object: 0, Grade: 1}, {Object: 1, Grade: 0}, {Object: 2, Grade: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Set("*", l)
	if m.Epoch() <= base {
		t.Fatal("Set did not bump the epoch")
	}
	if _, ok := m.UpdatesSince(base); ok {
		t.Fatal("Set is not journalable; UpdatesSince must answer ok=false")
	}
	if ups, ok := m.UpdatesSince(m.Epoch()); !ok || len(ups) != 0 {
		t.Fatalf("UpdatesSince(current) after Set = %v, %v", ups, ok)
	}
}

func TestMutableUpdateErrors(t *testing.T) {
	m := mutableFixture(t)
	if err := m.UpdateGrade("missing", 0, 0.5); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("unknown target: err = %v", err)
	}
	if err := m.UpdateGrade("*", 99, 0.5); !errors.Is(err, gradedset.ErrUnknownObject) {
		t.Fatalf("unknown object: err = %v", err)
	}
	if err := m.UpdateGrade("*", 0, 2); err == nil {
		t.Fatal("invalid grade accepted")
	}
}

// TestMutableConcurrentReadersWriters hammers Query/UpdateGrade/Epoch/
// UpdatesSince from many goroutines; run under -race it pins the lock
// discipline, and every snapshot a reader obtains must be internally
// consistent (validated).
func TestMutableConcurrentReadersWriters(t *testing.T) {
	entries := make([]gradedset.Entry, 32)
	for i := range entries {
		entries[i] = gradedset.Entry{Object: i, Grade: float64(i) / 32}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable("A", 32, 16)
	m.Set("*", l)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := m.UpdateGrade("*", (w*7+i)%32, float64(i%11)/10); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			since := m.Epoch()
			for i := 0; i < 100; i++ {
				src, err := m.Query("*")
				if err != nil {
					t.Error(err)
					return
				}
				last := 2.0
				for r := 0; r < src.Len(); r++ {
					g := src.Entry(r).Grade
					if g > last {
						t.Errorf("snapshot unsorted at rank %d", r)
						return
					}
					last = g
				}
				if ups, ok := m.UpdatesSince(since); ok {
					for j := 1; j < len(ups); j++ {
						if ups[j].Seq != ups[j-1].Seq+1 {
							t.Errorf("journal gap: %d then %d", ups[j-1].Seq, ups[j].Seq)
							return
						}
					}
				} else {
					since = m.Epoch()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMutableSnapshotsAcrossFolds holds snapshots while writers chain
// updates through several overlay folds (N = 64 folds at ⌈√64⌉ = 8
// moved objects): run under -race it pins that neither a write nor a
// fold touches a published list, and each held snapshot must still read
// exactly as it did when it was taken.
func TestMutableSnapshotsAcrossFolds(t *testing.T) {
	const n, writers, readers, writes = 64, 2, 4, 300
	entries := make([]gradedset.Entry, n)
	for i := range entries {
		entries[i] = gradedset.Entry{Object: i, Grade: float64(i%9) / 8}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable("A", n, 16)
	m.Set("*", l)
	// A writer's 9 consecutive writes regrade 9 distinct objects, one
	// more than an overlay holds, so any 2·9 − 1 writes of the two
	// writers force a fold.
	const crossing = writers*9 - 1
	var taken, wg sync.WaitGroup
	var done atomic.Bool
	taken.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for i := 0; i < 20; i++ {
				at := m.Epoch()
				src, err := m.Query("*")
				if err != nil {
					t.Error(err)
					return
				}
				was := slices.Clone(src.Entries(0, n))
				if first {
					taken.Done()
					first = false
				}
				for m.Epoch() < at+crossing && !done.Load() {
					runtime.Gosched()
				}
				now := src.Entries(0, n)
				if !slices.Equal(now, was) {
					t.Errorf("snapshot taken at epoch %d moved under writes", at)
					return
				}
				for r, e := range now {
					if src.Entry(r) != e || src.Grade(e.Object) != e.Grade || (r > 0 && e.Grade > now[r-1].Grade) {
						t.Errorf("snapshot taken at epoch %d inconsistent at rank %d", at, r)
						return
					}
				}
			}
		}()
	}
	taken.Wait() // every reader holds a snapshot before the first write
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < writes; i++ {
				obj := (w*n/writers + i) % n
				if err := m.UpdateGrade("*", obj, float64((i+w)%11)/10); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	done.Store(true)
	wg.Wait()
}

func TestMutableIsVersionedSubsystem(t *testing.T) {
	var s Subsystem = NewMutable("A", 1, 0)
	if _, ok := s.(Versioned); !ok {
		t.Fatal("Mutable must implement Versioned")
	}
	if _, ok := s.(interface{ Epoch() uint64 }); !ok {
		t.Fatal("epoch capability missing")
	}
	// Static remains immutable by contract: not Versioned.
	if _, ok := Subsystem(NewStatic("A", 1)).(Versioned); ok {
		t.Fatal("Static must not claim Versioned")
	}
}
