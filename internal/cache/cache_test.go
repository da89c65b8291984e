package cache

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

func testKey(q string) Key {
	return Key{Query: q, K: 10, Algorithm: "A0", Law: "min/max", Prefetch: -1}
}

// testTargets are the targets of testEntry's three atoms.
var testTargets = []string{"a", "b", "c"}

// testEntry caches objects 1, 2 and 3 at 0.9, 0.8 and 0.6 as the answer
// of a min-conjunction over three atoms.
func testEntry(epochs []uint64) *Entry {
	return testEntryOf([]gradedset.Entry{{Object: 1, Grade: 0.9}, {Object: 2, Grade: 0.8}, {Object: 3, Grade: 0.6}}, epochs)
}

func testEntryOf(top []gradedset.Entry, epochs []uint64) *Entry {
	atoms := make([]AtomRef, len(testTargets))
	for i, tg := range testTargets {
		atoms[i] = AtomRef{Attr: "A", Target: tg}
	}
	return NewEntry("payload", cost.Cost{Sorted: 100, Random: 50}, atoms, agg.Min, top, epochs)
}

func TestCacheLRUBound(t *testing.T) {
	c := New(2)
	if c.Cap() != 2 {
		t.Fatalf("cap = %d", c.Cap())
	}
	c.Put(testKey("a"), testEntry([]uint64{0, 0, 0}))
	c.Put(testKey("b"), testEntry([]uint64{0, 0, 0}))
	c.Put(testKey("c"), testEntry([]uint64{0, 0, 0}))
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, v := c.Get(testKey("a"), nil); v == Fresh {
		t.Fatal("oldest entry not evicted")
	}
	if _, v := c.Get(testKey("c"), nil); v != Fresh {
		t.Fatal("newest entry evicted")
	}
	// Touching "b" makes "c" the LRU victim of the next insert.
	if _, v := c.Get(testKey("b"), nil); v != Fresh {
		t.Fatal("entry b missing")
	}
	c.Put(testKey("d"), testEntry([]uint64{0, 0, 0}))
	if _, v := c.Get(testKey("b"), nil); v != Fresh {
		t.Fatal("recently used entry evicted")
	}
	if _, v := c.Get(testKey("c"), nil); v == Fresh {
		t.Fatal("LRU victim survived")
	}
	st := c.Stats()
	if st.Stores != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := New(8)
	c.Put(testKey("a"), testEntry([]uint64{0, 0, 0}))
	c.Put(testKey("b"), testEntry([]uint64{0, 0, 0}))
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len = %d after Invalidate", c.Len())
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheFailedValidationDrops(t *testing.T) {
	c := New(8)
	c.Put(testKey("a"), testEntry([]uint64{0, 0, 0}))
	if _, v := c.Get(testKey("a"), func(*Entry) Verdict { return Dead }); v != Dead {
		t.Fatal("failed validation served")
	}
	if c.Len() != 0 {
		t.Fatal("invalidated entry kept")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// replay builds the Revalidate callbacks for a single-subsystem
// scenario: every atom shares one epoch counter and journal, and
// replayable false stands for an overflowed or Set-poisoned journal.
func replay(e *Entry, epoch uint64, ups []subsys.Update, replayable bool) (Verdict, *Probe) {
	return e.Revalidate(
		func(int) uint64 { return epoch },
		func(_ int, since uint64) ([]subsys.Update, bool) {
			out := []subsys.Update{}
			for _, u := range ups {
				if u.Seq > since {
					out = append(out, u)
				}
			}
			return out, replayable
		},
		func(i int, u subsys.Update) bool { return u.Target == testTargets[i] },
	)
}

// TestSurvivalRules pins the three verdicts a replay can reach on a
// min-conjunction entry over three atoms, whose cached answer is
// objects 1, 2 and 3 at 0.9, 0.8 and 0.6. A repair is then run against
// a table of current grades: it must ask for exactly the grades the
// journal does not state, and answer the top k of the cached answer
// and the probed objects, unless a probed grade ties another at or
// above the new k-th grade, which leaves the entry dead.
func TestSurvivalRules(t *testing.T) {
	up := func(seq uint64, atom string, obj int, old, new float64) subsys.Update {
		return subsys.Update{Seq: seq, Target: atom, Object: obj, Old: old, New: new}
	}
	// current grades per object and atom, after the rows' updates.
	current := map[int][3]float64{
		1: {0.95, 0.97, 0.91}, // member 1 raised on atom 0: still 0.91
		2: {0.8, 0.85, 0.9},
		3: {0.6, 0.7, 0.65},
		9: {0.7, 0.75, 0.65}, // a non-member raised to 0.65
		8: {0.95, 0.6, 0.7},  // a non-member raised to a tie with member 3
		7: {0.7, 0.9, 0.99},  // a non-member raised on two atoms to 0.7
	}
	top := func(es ...gradedset.Entry) []gradedset.Entry { return es }
	cached := top(gradedset.Entry{Object: 1, Grade: 0.9}, gradedset.Entry{Object: 2, Grade: 0.8}, gradedset.Entry{Object: 3, Grade: 0.6})
	cases := []struct {
		name       string
		ups        []subsys.Update
		replayable bool
		verdict    Verdict // after the probe, if any, has run
		asked      int     // grades the probe read
		want       []gradedset.Entry
	}{
		{name: "member lowered is dead", ups: []subsys.Update{up(1, "a", 2, 0.8, 0.1)}, replayable: true, verdict: Dead},
		{name: "member raised is a repair", ups: []subsys.Update{up(1, "a", 1, 0.9, 0.95)}, replayable: true, verdict: Repair, asked: 2,
			want: top(gradedset.Entry{Object: 1, Grade: 0.91}, gradedset.Entry{Object: 2, Grade: 0.8}, gradedset.Entry{Object: 3, Grade: 0.6})},
		{name: "non-member lowered is fresh", ups: []subsys.Update{up(1, "a", 9, 0.5, 0.1)}, replayable: true, verdict: Fresh},
		{name: "non-member raised below the k-th grade is fresh", ups: []subsys.Update{up(1, "a", 9, 0.1, 0.59)}, replayable: true, verdict: Fresh},
		{name: "non-member raised past the k-th grade is a repair", ups: []subsys.Update{up(1, "b", 9, 0.1, 0.75)}, replayable: true, verdict: Repair, asked: 2,
			want: top(gradedset.Entry{Object: 1, Grade: 0.9}, gradedset.Entry{Object: 2, Grade: 0.8}, gradedset.Entry{Object: 9, Grade: 0.65})},
		{name: "journaled grades are not asked for", ups: []subsys.Update{up(1, "a", 7, 0.1, 0.7), up(2, "c", 7, 0.2, 0.99)}, replayable: true, verdict: Repair, asked: 1,
			want: top(gradedset.Entry{Object: 1, Grade: 0.9}, gradedset.Entry{Object: 2, Grade: 0.8}, gradedset.Entry{Object: 7, Grade: 0.7})},
		{name: "a tie at the new k-th grade is dead", ups: []subsys.Update{up(1, "a", 8, 0.1, 0.95)}, replayable: true, verdict: Dead, asked: 2},
		{name: "overflowed or Set journal is dead", ups: []subsys.Update{up(1, "a", 9, 0.5, 0.1)}, replayable: false, verdict: Dead},
		{name: "other target is fresh", ups: []subsys.Update{up(1, "other", 1, 0.9, 1)}, replayable: true, verdict: Fresh},
	}
	for _, tc := range cases {
		e := testEntryOf(cached, []uint64{0, 0, 0})
		v, p := replay(e, 1, tc.ups, tc.replayable)
		if (v == Repair) != (p != nil) {
			t.Fatalf("%s: verdict %v with probe %v", tc.name, v, p)
		}
		asked := 0
		var got []gradedset.Entry
		if p != nil {
			var err error
			got, err = p.Run(func(i int, objs []int, col []float64) error {
				for j, o := range objs {
					g, ok := current[o]
					if !ok {
						t.Fatalf("%s: probe asked for object %d", tc.name, o)
					}
					col[j] = g[i]
				}
				asked += len(objs)
				return nil
			})
			if errors.Is(err, ErrTie) {
				v = Dead
			} else if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if v != tc.verdict {
			t.Errorf("%s: verdict %v, want %v", tc.name, v, tc.verdict)
		}
		if asked != tc.asked {
			t.Errorf("%s: the probe read %d grades, want %d", tc.name, asked, tc.asked)
		}
		if v == Repair && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: repaired answer %v, want %v", tc.name, got, tc.want)
		}
		if e.Dead() != (v == Dead && p == nil) {
			t.Errorf("%s: dead = %v after verdict %v", tc.name, e.Dead(), v)
		}
	}
}

// TestRepairedEntry: a repaired entry carries the probe's answer and
// the epochs the replay reached, keeps the original computation's saved
// cost, and leaves the entry it repairs at its old stamps.
func TestRepairedEntry(t *testing.T) {
	e := testEntry([]uint64{0, 0, 0})
	v, p := replay(e, 4, []subsys.Update{{Seq: 4, Target: "a", Object: 1, Old: 0.9, New: 1}}, true)
	if v != Repair {
		t.Fatalf("verdict %v, want a repair", v)
	}
	got, err := p.Run(func(i int, objs []int, col []float64) error {
		for j := range objs {
			col[j] = 0.99
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Entry("repaired", got)
	if r.SavedCost != e.SavedCost || r.Payload != "repaired" {
		t.Fatalf("repaired entry %+v", r)
	}
	if r.EpochSum() != 12 || e.EpochSum() != 0 {
		t.Fatalf("epoch sums: repaired %d, want 12; original %d, want 0", r.EpochSum(), e.EpochSum())
	}
	// The repaired entry revalidates from its own answer: member 1 now
	// sits at 0.99, so lowering it is a member lowered.
	if v, _ := replay(r, 5, []subsys.Update{{Seq: 5, Target: "b", Object: 1, Old: 0.99, New: 0.5}}, true); v != Dead {
		t.Fatalf("repaired entry: verdict %v after its member sank, want dead", v)
	}
}

// TestCacheRepairCounts: a repair verdict counts a miss, leaves the
// entry in place for the repair to replace, and the replacement counts
// a repair, not a store; a repair that fails drops the entry as an
// invalidation.
func TestCacheRepairCounts(t *testing.T) {
	c := New(8)
	key := testKey("a")
	old := testEntry([]uint64{0, 0, 0})
	c.Put(key, old)
	if e, v := c.Get(key, func(*Entry) Verdict { return Repair }); v != Repair || e != old {
		t.Fatalf("Get = %v, %v; want the entry and a repair", e, v)
	}
	repaired := testEntry([]uint64{1, 1, 1})
	c.Repaired(key, repaired)
	if e, v := c.Get(key, nil); v != Fresh || e != repaired {
		t.Fatalf("after the repair Get = %v, %v; want the repaired entry", e, v)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Repairs != 1 || st.Stores != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	c.Get(key, func(*Entry) Verdict { return Repair })
	c.Drop(key, repaired)
	if !repaired.Dead() || c.Len() != 0 {
		t.Fatalf("a failed repair left the entry: dead %v, len %d", repaired.Dead(), c.Len())
	}
	if st := c.Stats(); st.Misses != 2 || st.Repairs != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSurvivalTracksKnownGrades pins the per-object refinement: under
// min, a raise to 0.9 on list 1 survives when an earlier replayed
// update revealed the object's grade on list 0 is tiny — the aggregate
// bound min(0.05, 0.9) stays below the k-th grade. Without tracking,
// the bound would be min(1, 0.9) = 0.9 and the entry would need a probe.
func TestSurvivalTracksKnownGrades(t *testing.T) {
	e := testEntry([]uint64{0, 0, 0})
	journals := [][]subsys.Update{
		{{Seq: 1, Target: "*", Object: 9, Old: 0.5, New: 0.05}}, // list 0: reveals a tiny grade
		{{Seq: 1, Target: "*", Object: 9, Old: 0.1, New: 0.9}},  // list 1: would need a probe unrefined
		nil,
	}
	v, _ := e.Revalidate(
		func(int) uint64 { return 1 },
		func(i int, since uint64) ([]subsys.Update, bool) { return journals[i], true },
		func(i int, u subsys.Update) bool { return u.Target == "*" },
	)
	if v != Fresh {
		t.Fatalf("verdict %v despite a known tiny grade on the other list, want fresh", v)
	}
}

func TestRevalidateJournalOverflow(t *testing.T) {
	e := testEntry([]uint64{0, 0, 0})
	v, _ := e.Revalidate(
		func(int) uint64 { return 5 },
		func(int, uint64) ([]subsys.Update, bool) { return nil, false },
		func(int, subsys.Update) bool { return true },
	)
	if v != Dead {
		t.Fatal("unreplayable history must evict")
	}
	if !e.Dead() {
		t.Fatal("entry not marked dead")
	}
}

func TestRevalidateAdvancesEpochs(t *testing.T) {
	e := testEntry([]uint64{0, 0, 0})
	calls := 0
	upsSince := func(_ int, since uint64) ([]subsys.Update, bool) {
		calls++
		if since != 3 && calls > len(testTargets) {
			// After the first successful replay the stamps must be 3: a
			// second revalidation at the same epoch replays nothing.
			return nil, false
		}
		return []subsys.Update{{Seq: since + 1, Target: "*", Object: 9, Old: 0.5, New: 0.1}}, true
	}
	if v, _ := e.Revalidate(func(int) uint64 { return 3 }, upsSince, func(int, subsys.Update) bool { return true }); v != Fresh {
		t.Fatalf("first revalidation: verdict %v", v)
	}
	calls = 0
	if v, _ := e.Revalidate(func(int) uint64 { return 3 }, upsSince, func(int, subsys.Update) bool { return true }); v != Fresh {
		t.Fatalf("second revalidation: verdict %v", v)
	}
	if calls != 0 {
		t.Fatalf("second revalidation replayed %d times; stamps did not advance", calls)
	}
}

// TestCacheConcurrentHitWhileInvalidating races lookups that serve an
// entry against Invalidate and failing validations; run under -race it
// pins the locking, and the counters must stay coherent (every lookup
// is a hit or a miss, never both, never neither).
func TestCacheConcurrentHitWhileInvalidating(t *testing.T) {
	c := New(16)
	key := testKey("hot")
	c.Put(key, testEntry([]uint64{0, 0, 0}))
	var wg sync.WaitGroup
	const lookups = 400
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				verdict := Fresh
				if i%7 == 0 {
					verdict = Dead
				}
				if e, v := c.Get(key, func(*Entry) Verdict { return verdict }); v == Fresh {
					if e.Payload != "payload" {
						t.Error("wrong payload served")
						return
					}
				} else {
					c.Put(key, testEntry([]uint64{0, 0, 0}))
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < lookups/10; i++ {
				c.Invalidate()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 4*lookups {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, 4*lookups)
	}
}
